// Concord hook kinds, their BPF context layouts, and per-hook verification
// rules.
//
// Each hook kind corresponds to one row of Table 1 in the paper (plus
// rw_mode, the readers-writer analogue used by the BRAVO integration). For
// every kind this header defines:
//   - the C struct handed to the policy program in R1,
//   - a ContextDescriptor limiting which fields a program may read/write,
//   - the capability mask limiting which helpers it may call.

#ifndef SRC_CONCORD_HOOKS_H_
#define SRC_CONCORD_HOOKS_H_

#include <atomic>
#include <cstdint>

#include "src/base/time.h"
#include "src/bpf/context.h"
#include "src/bpf/helpers.h"
#include "src/bpf/program.h"
#include "src/concord/profiler.h"
#include "src/sync/policy_hooks.h"

namespace concord {

enum class HookKind : std::uint8_t {
  kCmpNode = 0,
  kSkipShuffle,
  kScheduleWaiter,
  kLockAcquire,
  kLockContended,
  kLockAcquired,
  kLockRelease,
  kRwMode,
};
inline constexpr int kNumHookKinds = 8;

const char* HookKindName(HookKind kind);

// Reverse of HookKindName; false when `name` matches no hook.
bool ParseHookKindName(const std::string& name, HookKind* out);

// --- context structs ---------------------------------------------------------
// Plain-old-data; the BPF program sees them through the descriptors below.

// cmp_node(lock, shuffler_node, curr_node): should `curr` join the
// shuffler's group? Return nonzero to move it forward.
struct CmpNodeCtx {
  ShflWaiterView shuffler;  // offsets 0..39
  ShflWaiterView curr;      // offsets 40..79
};
static_assert(sizeof(CmpNodeCtx) == 80);

// skip_shuffle(lock, shuffler_node): return nonzero to skip this round.
struct SkipShuffleCtx {
  ShflWaiterView shuffler;
};
static_assert(sizeof(SkipShuffleCtx) == 40);

// schedule_waiter(lock, curr_node): return nonzero to park the waiter now.
struct ScheduleWaiterCtx {
  ShflWaiterView waiter;          // offsets 0..39
  std::uint32_t spin_iterations;  // offset 40
  std::uint32_t reserved;         // offset 44
};
static_assert(sizeof(ScheduleWaiterCtx) == 48);

// The four profiling hooks share one context. now_ns is the lock's stamp of
// the event on a timed acquisition (lock_acquired, lock_release). Otherwise
// the trampoline reads the clock for it if a program of the chain reads
// now_ns (LockValue::kNowNs), and passes 0 if none does.
struct ProfileCtx {
  std::uint64_t lock_id;  // offset 0
  std::uint64_t now_ns;   // offset 8
  std::uint32_t hook;     // offset 16: HookKind of the firing tap
  std::uint32_t reserved; // offset 20
};
static_assert(sizeof(ProfileCtx) == 24);

// rw_mode(lock): return the RwMode the lock should operate in.
struct RwModeCtx {
  std::uint64_t lock_id;
};
static_assert(sizeof(RwModeCtx) == 8);

// --- what the lock produces only for programs that read it -------------------
//
// Three context values cost the lock work. Each time Concord installs a
// table it derives the lock's timing from the verified facts on the
// attached programs (Program::ctx_fields_read, calls_get_cs_ewma_ns):
//   - kWaitNs, a waiter's *_wait_ns: the lock stamps each waiter at enqueue
//     and reads the clock for each view (HookTable::track_wait_time);
//   - kCsEwmaNs, a waiter's *_cs_ewma_ns or a get_cs_ewma_ns call: every
//     acquisition is timed and feeds the holder's EWMA
//     (HookTable::track_hold_time);
//   - kNowNs, a tap's now_ns: the tap trampoline reads the clock on an event
//     the lock did not stamp.
enum class LockValue : std::uint8_t { kWaitNs, kCsEwmaNs, kNowNs };

// Whether `program` reads `value`. A precompiled program counts as reading
// every field of its context.
bool ReadsLockValue(const Program& program, LockValue value);

// --- hook runtime budgets ----------------------------------------------------
//
// A HookBudgetState exists iff the attached policy sets a budget
// (PolicySpec::hook_budget_ns != 0), owned by the installed CompiledPolicy
// table (src/concord/concord.cc), which dies only after the grace period that
// retires it. Trampolines account each policy invocation here; when the
// overruns reach the trip threshold the table raises its trip flag, which
// the containment registry's Poll() harvests asynchronously — the hot path
// never detaches (it runs inside an RCU read section where a synchronize
// would deadlock).

// Elapsed nanoseconds since `start_ns`, clamped at zero. The clock contract
// (src/base/time.h) is monotonic, but a test FakeClock can be stepped
// backwards and a future CLOCK_MONOTONIC_RAW swap could regress across
// cores; unclamped `now - start` would wrap to ~2^64 ns and instantly trip
// any budget. Every elapsed computation that feeds AccountDispatch must go
// through this.
inline std::uint64_t ElapsedSinceNs(std::uint64_t start_ns) {
  const std::uint64_t now = ClockNowNs();
  return now > start_ns ? now - start_ns : 0;
}

struct HookBudgetState {
  // Configuration, fixed at attach time.
  std::uint64_t budget_ns = 0;      // per-invocation budget
  std::uint32_t trip_overruns = 8;  // overruns before the trip flag raises

  // Accounting (per hook kind: invocation count and summed execution time).
  std::atomic<std::uint64_t> calls[8] = {};
  std::atomic<std::uint64_t> spent_ns[8] = {};
  std::atomic<std::uint64_t> overruns{0};
  std::atomic<std::uint64_t> max_ns{0};

  // Accounts one invocation; true when its overrun reaches the trip
  // threshold (the caller raises its trip flag).
  bool AccountDispatch(HookKind kind, std::uint64_t elapsed_ns,
                       ShardedLockProfileStats* stats) {
    const auto k = static_cast<std::size_t>(kind);
    calls[k].fetch_add(1, std::memory_order_relaxed);
    spent_ns[k].fetch_add(elapsed_ns, std::memory_order_relaxed);
    std::uint64_t prev_max = max_ns.load(std::memory_order_relaxed);
    while (elapsed_ns > prev_max &&
           !max_ns.compare_exchange_weak(prev_max, elapsed_ns,
                                         std::memory_order_relaxed)) {
    }
    if (elapsed_ns <= budget_ns) {
      return false;
    }
    const std::uint64_t total =
        overruns.fetch_add(1, std::memory_order_relaxed) + 1;
    if (stats != nullptr) {
      stats->Shard().budget_overruns.fetch_add(1, std::memory_order_relaxed);
    }
    return total >= trip_overruns;
  }

  std::uint64_t TotalCalls() const {
    std::uint64_t total = 0;
    for (const auto& c : calls) {
      total += c.load(std::memory_order_relaxed);
    }
    return total;
  }

  std::uint64_t TotalSpentNs() const {
    std::uint64_t total = 0;
    for (const auto& s : spent_ns) {
      total += s.load(std::memory_order_relaxed);
    }
    return total;
  }
};
static_assert(kNumHookKinds == 8, "HookBudgetState arrays track kNumHookKinds");

// --- per-hook verification rules ---------------------------------------------

// Descriptor a program must be written against to attach at `kind`.
const ContextDescriptor& DescriptorFor(HookKind kind);

// Helper-capability mask granted at `kind`. Decision hooks may read state
// and use maps but may not mutate lock/waiter state; cmp_node and
// skip_shuffle additionally lose trace (they run per queue scan — a printk
// there is a footgun the paper's Table 1 calls out as "increase critical
// section" for the profiling hooks and worse here).
std::uint32_t CapabilitiesFor(HookKind kind);

}  // namespace concord

#endif  // SRC_CONCORD_HOOKS_H_
