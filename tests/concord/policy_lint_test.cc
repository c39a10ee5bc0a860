#include "src/concord/policy_lint.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/bpf/assembler.h"
#include "src/bpf/jit/jit.h"
#include "src/bpf/maps.h"
#include "src/bpf/vm.h"
#include "src/concord/hooks.h"
#include "src/concord/policy.h"

namespace concord {
namespace {

// Assembles `source` against the hook's context descriptor with the scratch
// map bound at index 0, as the policy loader does for map-less sources.
StatusOr<Program> Assemble(HookKind kind, const std::string& source,
                           BpfMap* map) {
  return AssembleProgram("lint_test", source, &DescriptorFor(kind), {map});
}

// Runs `program` through the admission gate every attach applies
// (PolicySpec::VerifyAll: verify, lint, certify).
Status Gate(HookKind kind, Program program,
            AdmissionReport* report = nullptr) {
  PolicySpec spec;
  spec.name = "lint_test";
  CONCORD_RETURN_IF_ERROR(spec.AddProgram(kind, std::move(program)));
  return spec.VerifyAll(report);
}

bool HasRule(const LintReport& report, const std::string& rule) {
  for (const auto& finding : report.findings) {
    if (finding.rule == rule) {
      return true;
    }
  }
  return false;
}

TEST(PolicyLintTest, CleanNumaCmpNodePasses) {
  const char* source = R"(
    ldxw r2, [r1+16]    ; shuffler_socket
    ldxw r3, [r1+56]    ; curr_socket
    jeq r2, r3, same
    mov r0, 0
    exit
  same:
    mov r0, 1
    exit
  )";
  ArrayMap scratch("scratch", 8, 8);
  auto program = Assemble(HookKind::kCmpNode, source, &scratch);
  ASSERT_TRUE(program.ok());
  AdmissionReport report;
  Status s = Gate(HookKind::kCmpNode, *program, &report);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(report.lint.ok());
}

// A map write by helper, by a store through a map-value pointer or by an
// atomic add there: each makes cmp_node impure. The last two count calls and
// then answer like numa_cmp_node.
TEST(PolicyLintTest, CmpNodeMapWriteViolatesPurity) {
  const std::string lookup = R"(
    stw [r10-4], 0      ; key
    mov r1, 0
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jeq r0, 0, numa
  )";
  const std::string numa = R"(
  numa:
    ldxw r2, [r6+16]    ; shuffler_socket
    ldxw r3, [r6+56]    ; curr_socket
    mov r0, 0
    jne r2, r3, out
    mov r0, 1
  out:
    exit
  )";
  const std::pair<const char*, std::string> writes[] = {
      {"map_update_elem", R"(
          stw [r10-4], 0      ; key
          stdw [r10-16], 1    ; value
          mov r1, 0
          mov r2, r10
          add r2, -4
          mov r3, r10
          add r3, -16
          call map_update_elem
          mov r0, 0
          exit
        )"},
      {"stxdw", "mov r6, r1\n" + lookup +
                    "ldxdw r2, [r0+0]\nadd r2, 1\nstxdw [r0+0], r2\n" + numa},
      {"xadddw",
       "mov r6, r1\n" + lookup + "mov r2, 1\nxadddw [r0+0], r2\n" + numa},
  };
  for (const auto& [name, source] : writes) {
    SCOPED_TRACE(name);
    ArrayMap scratch("scratch", 8, 8);
    auto program = Assemble(HookKind::kCmpNode, source, &scratch);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    AdmissionReport report;
    Status s = Gate(HookKind::kCmpNode, *program, &report);
    EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
    EXPECT_NE(s.message().find("cmp_node contract"), std::string::npos);
    EXPECT_TRUE(HasRule(report.lint, "cmp-node-pure"));
    EXPECT_TRUE(report.writes_map);
    EXPECT_FALSE(report.map_pure);
  }
}

TEST(PolicyLintTest, CmpNodeReturnOutsideZeroOne) {
  const char* source = "mov r0, 2\nexit\n";
  ArrayMap scratch("scratch", 8, 8);
  auto program = Assemble(HookKind::kCmpNode, source, &scratch);
  ASSERT_TRUE(program.ok());
  AdmissionReport report;
  Status s = Gate(HookKind::kCmpNode, *program, &report);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(HasRule(report.lint, "return-range"));
}

TEST(PolicyLintTest, CmpNodeLoopBeyondScanCapFlagged) {
  // Bounded (the verifier accepts it) but 512 trips > kMaxShuffleScan = 128.
  const char* source = R"(
    mov r2, 0
    mov r0, 0
  loop:
    add r2, 1
    jlt r2, 512, loop
    exit
  )";
  ArrayMap scratch("scratch", 8, 8);
  auto program = Assemble(HookKind::kCmpNode, source, &scratch);
  ASSERT_TRUE(program.ok());
  AdmissionReport report;
  Status s = Gate(HookKind::kCmpNode, *program, &report);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(HasRule(report.lint, "loop-bound"));

  // The identical loop is fine for skip_shuffle, whose cap is
  // kShuffleRoundCap = 1024.
  auto program2 = Assemble(HookKind::kSkipShuffle, source, &scratch);
  ASSERT_TRUE(program2.ok());
  EXPECT_TRUE(Gate(HookKind::kSkipShuffle, *program2).ok());
}

TEST(PolicyLintTest, SkipShuffleLoopBeyondRoundCapFlagged) {
  const char* source = R"(
    mov r2, 0
    mov r0, 0
  loop:
    add r2, 1
    jlt r2, 2000, loop
    exit
  )";
  ArrayMap scratch("scratch", 8, 8);
  auto program = Assemble(HookKind::kSkipShuffle, source, &scratch);
  ASSERT_TRUE(program.ok());
  AdmissionReport report;
  Status s = Gate(HookKind::kSkipShuffle, *program, &report);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(HasRule(report.lint, "loop-bound"));
  EXPECT_NE(s.message().find("1024-trip hook bound"), std::string::npos);
}

TEST(PolicyLintTest, ScheduleWaiterMustNotRetainWaiterPointer) {
  const char* source = R"(
    mov r6, r1          ; stash the waiter context pointer
    call ktime_get_ns
    ldxdw r2, [r6+0]    ; ... and read through it after the helper
    mov r0, 0
    exit
  )";
  ArrayMap scratch("scratch", 8, 8);
  auto program = Assemble(HookKind::kScheduleWaiter, source, &scratch);
  ASSERT_TRUE(program.ok());
  AdmissionReport report;
  Status s = Gate(HookKind::kScheduleWaiter, *program, &report);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(HasRule(report.lint, "waiter-ptr-across-call"));
}

TEST(PolicyLintTest, ScheduleWaiterReloadAfterCallIsFine) {
  // Reading the context before the call and keeping only scalars across it
  // satisfies the contract.
  const char* source = R"(
    ldxdw r6, [r1+0]    ; waiter_wait_ns (a scalar, not the pointer)
    call ktime_get_ns
    mov r0, 0
    jlt r6, 1000, done
    mov r0, 1
  done:
    exit
  )";
  ArrayMap scratch("scratch", 8, 8);
  auto program = Assemble(HookKind::kScheduleWaiter, source, &scratch);
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(Gate(HookKind::kScheduleWaiter, *program).ok());
}

TEST(PolicyLintTest, RwModeReturnRange) {
  ArrayMap scratch("scratch", 8, 8);
  auto ok_program = Assemble(HookKind::kRwMode, "mov r0, 2\nexit\n", &scratch);
  ASSERT_TRUE(ok_program.ok());
  EXPECT_TRUE(Gate(HookKind::kRwMode, *ok_program).ok());

  auto bad_program = Assemble(HookKind::kRwMode, "mov r0, 3\nexit\n", &scratch);
  ASSERT_TRUE(bad_program.ok());
  AdmissionReport report;
  Status s = Gate(HookKind::kRwMode, *bad_program, &report);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(HasRule(report.lint, "return-range"));
}

TEST(PolicyLintTest, ProfilingHooksAreLenient) {
  // Map writes and wide return values are fine on profiling taps.
  const char* source = R"(
    ldxdw r0, [r1+8]    ; now_ns, unbounded
    exit
  )";
  ArrayMap scratch("scratch", 8, 8);
  auto program = Assemble(HookKind::kLockRelease, source, &scratch);
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(Gate(HookKind::kLockRelease, *program).ok());
}

// The acceptance scenario for this PR: a counter-bounded-loop policy that v1
// (no back edges) rejected outright now verifies, passes lint, and computes
// the same answer on the interpreter and the JIT.
TEST(PolicyLintTest, BoundedLoopPolicyVerifiesAndRunsOnBothTiers) {
  const char* source = R"(
    ldxdw r2, [r1+0]    ; shuffler_wait_ns
    mov r3, 0
  scan:
    jle r2, 1, done
    rsh r2, 1
    add r3, 1
    jlt r3, 64, scan
  done:
    jlt r3, 10, skip
    mov r0, 0
    exit
  skip:
    mov r0, 1
    exit
  )";
  ArrayMap scratch("scratch", 8, 8);
  auto program = Assemble(HookKind::kSkipShuffle, source, &scratch);
  ASSERT_TRUE(program.ok());
  PolicySpec spec;
  ASSERT_TRUE(
      spec.AddProgram(HookKind::kSkipShuffle, std::move(*program)).ok());
  AdmissionReport report;
  Status s = spec.VerifyAll(&report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(report.analysis.loops.size(), 1u);
  EXPECT_LE(report.analysis.loops[0].max_trips, 63u);
  EXPECT_EQ(report.analysis.r0_exit.umax, 1u);
  const Program& admitted = spec.ChainFor(HookKind::kSkipShuffle).programs[0];

  // wait_ns = 100 -> log2 = 6 < 10 -> skip (1); wait_ns = 5000 -> log2 = 12
  // -> shuffle (0).
  SkipShuffleCtx short_wait{};
  short_wait.shuffler.wait_ns = 100;
  SkipShuffleCtx long_wait{};
  long_wait.shuffler.wait_ns = 5000;
  EXPECT_EQ(BpfVm::Run(admitted, &short_wait), 1u);
  EXPECT_EQ(BpfVm::Run(admitted, &long_wait), 0u);
  if (Jit::Supported()) {
    auto compiled = Jit::Compile(admitted);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_EQ(compiled.value()->Run(admitted, &short_wait), 1u);
    EXPECT_EQ(compiled.value()->Run(admitted, &long_wait), 0u);
  }
}

}  // namespace
}  // namespace concord
