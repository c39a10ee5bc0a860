// The one loader from .casm policy text to an admitted PolicySpec.
//
// Every text surface (concord_check, concord_asm, the policy.attach RPC verb,
// the fleet agent's candidates and the autotune directory seeder) loads
// through LoadPolicy, so they agree on the directives, on the map table and
// on the verdict. Shipped policies carry their attach metadata in comment
// directives:
//
//   ; hook: lock_acquire        which hook the program targets
//   ; budget_ns: 2000           per-dispatch runtime budget the author
//                               certifies against (consumed by the WCET gate,
//                               src/bpf/analysis/certify.h, and installed as
//                               PolicySpec::hook_budget_ns)
//
// Directive errors name their line ("line 3: unknown hook 'lock_aquire'")
// rather than reading as "no directive".
//
// Grammar, per line: the directive may appear anywhere after a `;` comment
// marker (conventionally the whole first line). The first line containing
// the directive key wins; the value runs to the next whitespace. A line
// where the key appears with no value is malformed, not absent.

#ifndef SRC_CONCORD_POLICY_SOURCE_H_
#define SRC_CONCORD_POLICY_SOURCE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/base/json.h"
#include "src/base/status.h"
#include "src/concord/hooks.h"
#include "src/concord/policy.h"

namespace concord {

// A raw directive occurrence: the token after the key, and the 1-based
// source line it was found on. An empty value means the key was present but
// malformed (nothing parseable followed it).
struct SourceDirective {
  std::string value;
  int line = 0;
};

// Scans for the directive `key` ("hook:" or "budget_ns:"). Returns false
// when no line carries the key; true otherwise, with *out describing the
// first occurrence (an empty value when malformed).
bool FindDirective(const std::string& source, const char* key,
                   SourceDirective* out);

// The `; hook:` directive, resolved to a hook. Errors:
//   kNotFound         no directive in the source
//   kInvalidArgument  directive present but malformed or naming an unknown
//                     hook — message carries "line N:" context
// When `line` is non-null it receives the directive's line whenever one was
// found, including on error.
StatusOr<HookKind> ResolveHookDirective(const std::string& source,
                                        int* line = nullptr);

// The `; budget_ns: <N>` directive (decimal nanoseconds). Errors: kNotFound
// when absent, kInvalidArgument (with line context) when present but not a
// decimal number.
StatusOr<std::uint64_t> ResolveBudgetDirective(const std::string& source);

// Loads `source` as policy `name`:
//   1. the hook is `hook` when non-empty, else the `; hook:` directive, and
//      the budget is `budget_ns` when set, else the `; budget_ns:` directive
//      (0 when absent); a missing hook or a malformed directive is
//      kInvalidArgument at stage "hook";
//   2. a source with no `.map` directive gets the 8-slot `scratch` array of
//      8-byte values at map index 0 (the `mov r1, 0` convention); a source
//      with `.map` directives owns its whole map table, indexed from 0;
//   3. the source is assembled against the hook's context, and the spec runs
//      its admission gate (PolicySpec::VerifyAll).
// The returned spec owns every map its program references. `report`, when
// non-null, is filled as far as the loader got.
StatusOr<PolicySpec> LoadPolicy(
    const std::string& name, const std::string& source,
    const std::string& hook = "",
    std::optional<std::uint64_t> budget_ns = std::nullopt,
    AdmissionReport* report = nullptr);

// Writes `report` for `file` as one JSON object (`concord_check --json`
// emits an array of them): file, hook, hook_line, ok, stage and error on
// failure, the lint findings, and — once the program verified — analysis,
// certified, cost and races.
void WriteAdmissionJson(JsonWriter& json, const std::string& file,
                        const AdmissionReport& report);

}  // namespace concord

#endif  // SRC_CONCORD_POLICY_SOURCE_H_
