// Lock-invariant lint for policy programs.
//
// The verifier (src/bpf/verifier.h) proves memory safety and termination for
// any program; this layer checks the *lock-specific* contracts a program must
// additionally honour at its attach point — the informal rules Table 1 of the
// paper states per hook, turned into machine-checkable facts over the
// verifier's Analysis artifact:
//
//   cmp_node         pure (no map writes, no context writes); returns 0 or 1;
//                    any loop bounded by kMaxShuffleScan trips (it runs once
//                    per scanned waiter — a longer loop outlives the queue
//                    walk it is deciding for).
//   skip_shuffle     returns 0 or 1; any loop bounded by kShuffleRoundCap
//                    trips (the lock clamps shuffling rounds there, so a
//                    longer loop can never be load-bearing).
//   schedule_waiter  returns 0 or 1; must not retain the waiter context
//                    pointer across a helper call (helpers may park or
//                    requeue — the pointer may be stale when control
//                    returns).
//   rw_mode          returns a valid RwMode (0, 1 or 2).
//   profiling hooks  no extra rules (budgets contain them at runtime).
//
// Lint runs after successful verification and consumes only proven facts, so
// a finding is a real contract violation on some feasible abstract path —
// never a heuristic. It is one stage of the admission gate every program
// passes at attach (PolicySpec::VerifyAll), which rejects on any finding.

#ifndef SRC_CONCORD_POLICY_LINT_H_
#define SRC_CONCORD_POLICY_LINT_H_

#include <string>
#include <vector>

#include "src/bpf/verifier.h"
#include "src/concord/hooks.h"

namespace concord {

struct LintFinding {
  std::string rule;     // stable identifier, e.g. "return-range"
  std::string message;  // human-readable explanation
};

struct LintReport {
  std::vector<LintFinding> findings;
  bool ok() const { return findings.empty(); }
};

// Checks the per-hook contracts against facts the verifier proved. The
// program must have passed Verify() with `analysis` filled in.
LintReport LintPolicyProgram(HookKind kind, const Verifier::Analysis& analysis);

}  // namespace concord

#endif  // SRC_CONCORD_POLICY_LINT_H_
