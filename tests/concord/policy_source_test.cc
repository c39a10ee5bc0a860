// Directive-parser coverage: `; hook:` and `; budget_ns:` scanning with
// file:line diagnostics for the malformed/unknown cases that the old ad-hoc
// parsers silently skipped.

#include <gtest/gtest.h>

#include "src/concord/policy_source.h"

namespace concord {
namespace {

TEST(PolicySourceTest, FindsDirectiveOnFirstLine) {
  SourceDirective directive;
  ASSERT_TRUE(FindDirective("; hook: cmp_node\n  mov r0, 0\n  exit\n",
                            "hook:", &directive));
  EXPECT_EQ(directive.value, "cmp_node");
  EXPECT_EQ(directive.line, 1);
}

TEST(PolicySourceTest, FindsDirectiveBelowOtherComments) {
  const std::string source =
      "; batching policy\n"
      ";\n"
      "; hook: skip_shuffle\n"
      "  mov r0, 0\n"
      "  exit\n";
  SourceDirective directive;
  ASSERT_TRUE(FindDirective(source, "hook:", &directive));
  EXPECT_EQ(directive.value, "skip_shuffle");
  EXPECT_EQ(directive.line, 3);

  auto kind = ResolveHookDirective(source);
  ASSERT_TRUE(kind.ok()) << kind.status().ToString();
  EXPECT_EQ(*kind, HookKind::kSkipShuffle);
}

TEST(PolicySourceTest, FindsDirectiveAfterOtherCommentText) {
  // The key may sit mid-comment; the value is the next token.
  SourceDirective directive;
  ASSERT_TRUE(
      FindDirective("  mov r0, 0   ; target hook: rw_mode always\n  exit\n",
                    "hook:", &directive));
  EXPECT_EQ(directive.value, "rw_mode");
  EXPECT_EQ(directive.line, 1);
}

TEST(PolicySourceTest, AbsentDirectiveIsNotFound) {
  SourceDirective directive;
  EXPECT_FALSE(FindDirective("  mov r0, 0\n  exit\n", "hook:", &directive));
  auto kind = ResolveHookDirective("  mov r0, 0\n  exit\n");
  ASSERT_FALSE(kind.ok());
  EXPECT_EQ(kind.status().code(), StatusCode::kNotFound);
}

TEST(PolicySourceTest, KeyOutsideCommentIsIgnored) {
  // `hook:` before any `;` on the line is not a directive (it could be a
  // label named "hook"); only the comment part is scanned.
  SourceDirective directive;
  EXPECT_FALSE(FindDirective("hook: cmp_node\n  exit\n", "hook:", &directive));
}

TEST(PolicySourceTest, MalformedDirectiveNamesItsLine) {
  const std::string source = "; policy\n; hook:\n  exit\n";
  SourceDirective directive;
  ASSERT_TRUE(FindDirective(source, "hook:", &directive));
  EXPECT_TRUE(directive.value.empty());
  EXPECT_EQ(directive.line, 2);

  int line = 0;
  auto kind = ResolveHookDirective(source, &line);
  ASSERT_FALSE(kind.ok());
  EXPECT_EQ(kind.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(line, 2);
  EXPECT_NE(kind.status().message().find("line 2:"), std::string::npos)
      << kind.status().message();
}

TEST(PolicySourceTest, UnknownHookNamesItselfAndItsLine) {
  auto kind = ResolveHookDirective("; hook: lock_aquire\n  exit\n");
  ASSERT_FALSE(kind.ok());
  EXPECT_EQ(kind.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(kind.status().message().find("line 1:"), std::string::npos)
      << kind.status().message();
  EXPECT_NE(kind.status().message().find("lock_aquire"), std::string::npos)
      << kind.status().message();
  // The diagnostic lists the valid names so the typo is a one-look fix.
  EXPECT_NE(kind.status().message().find("lock_acquire"), std::string::npos)
      << kind.status().message();
}

TEST(PolicySourceTest, BudgetDirectiveParses) {
  const std::string source = "; hook: lock_acquire\n; budget_ns: 2500\n  exit\n";
  SourceDirective directive;
  ASSERT_TRUE(FindDirective(source, "budget_ns:", &directive));
  EXPECT_EQ(directive.value, "2500");
  EXPECT_EQ(directive.line, 2);

  auto resolved = ResolveBudgetDirective(source);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, 2500u);
}

TEST(PolicySourceTest, BudgetDirectiveAbsent) {
  SourceDirective directive;
  EXPECT_FALSE(
      FindDirective("; hook: cmp_node\n  exit\n", "budget_ns:", &directive));
  auto resolved = ResolveBudgetDirective("; hook: cmp_node\n  exit\n");
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kNotFound);
}

TEST(PolicySourceTest, MalformedBudgetIsAnError) {
  for (const char* source :
       {"; budget_ns: soon\n  exit\n", "; budget_ns:\n  exit\n",
        "; budget_ns: 12x\n  exit\n"}) {
    auto resolved = ResolveBudgetDirective(source);
    ASSERT_FALSE(resolved.ok()) << source;
    EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument) << source;
    EXPECT_NE(resolved.status().message().find("line 1:"), std::string::npos)
        << resolved.status().message();
  }
}

}  // namespace
}  // namespace concord
