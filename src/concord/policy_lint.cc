#include "src/concord/policy_lint.h"

#include <string>

#include "src/sync/shfllock.h"

namespace concord {
namespace {

void Finding(LintReport& report, const char* rule, std::string message) {
  report.findings.push_back({rule, std::move(message)});
}

// R0 at exit must be provably inside [0, max_value].
void CheckReturnRange(LintReport& report, const Verifier::Analysis& analysis,
                      std::uint64_t max_value) {
  if (!analysis.has_exit) {
    return;  // unreachable for verified programs; nothing to check
  }
  const ScalarValue& r0 = analysis.r0_exit;
  if (r0.umax > max_value) {
    Finding(report, "return-range",
            "return value not proven in [0, " + std::to_string(max_value) +
                "]: verifier bounds R0 at exit to " + r0.ToString());
  }
}

// Every admitted loop must be proven to finish within `max_trips` trips.
void CheckLoopBound(LintReport& report, const Verifier::Analysis& analysis,
                    std::uint64_t max_trips, const char* why) {
  for (const auto& loop : analysis.loops) {
    if (loop.max_trips > max_trips) {
      Finding(report, "loop-bound",
              "loop with back edge at insn " +
                  std::to_string(loop.back_edge_pc) + " runs up to " +
                  std::to_string(loop.max_trips) + " trips, above the " +
                  std::to_string(max_trips) + "-trip hook bound (" + why +
                  ")");
    }
  }
}

}  // namespace

LintReport LintPolicyProgram(HookKind kind, const Program& program,
                             const Verifier::Analysis& analysis) {
  LintReport report;
  switch (kind) {
    case HookKind::kCmpNode:
      // The comparator runs once per scanned waiter inside the shuffler's
      // queue walk; it must be a pure decision.
      if (program.writes_map) {
        Finding(report, "cmp-node-pure",
                "cmp_node must be pure but writes a map");
      }
      if (analysis.writes_ctx) {
        Finding(report, "cmp-node-pure",
                "cmp_node must be pure but writes its context");
      }
      CheckReturnRange(report, analysis, 1);
      CheckLoopBound(report, analysis, ShflLock::kMaxShuffleScan,
                     "cmp_node runs once per scanned waiter");
      break;
    case HookKind::kSkipShuffle:
      CheckReturnRange(report, analysis, 1);
      CheckLoopBound(report, analysis, ShflLock::kShuffleRoundCap,
                     "the lock clamps shuffling rounds at kShuffleRoundCap");
      break;
    case HookKind::kScheduleWaiter:
      CheckReturnRange(report, analysis, 1);
      for (std::size_t pc : analysis.ctx_ptr_across_call_pcs) {
        Finding(report, "waiter-ptr-across-call",
                "waiter context pointer held in a callee-saved register "
                "across the helper call at insn " +
                    std::to_string(pc) + "; helpers may park or requeue the waiter, "
                             "making the pointer stale");
      }
      break;
    case HookKind::kRwMode:
      // RwMode: 0 = neutral, 1 = reader-biased, 2 = writer-biased.
      CheckReturnRange(report, analysis, 2);
      break;
    case HookKind::kLockAcquire:
    case HookKind::kLockContended:
    case HookKind::kLockAcquired:
    case HookKind::kLockRelease:
      // Profiling taps: return value is ignored and runtime budgets contain
      // their cost; nothing to lint statically.
      break;
  }
  return report;
}

}  // namespace concord
