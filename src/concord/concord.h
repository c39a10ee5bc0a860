// Concord — the framework facade (paper §4).
//
// Life of a policy, mirroring Figure 1:
//   1. A privileged userspace controller writes a policy (BPF assembly or
//      the builder DSL) and bundles it into a PolicySpec.           (step 1)
//   2. Concord::Attach verifies every program against the hook's context
//      descriptor + helper capability mask (eBPF restrictions AND the
//      lock-specific rules).                                     (steps 2-4)
//   3. The verified spec is compiled into a hook table of trampolines and
//      published to the live lock with an RCU pointer swap — the livepatch
//      analogue; acquirers never block on a patch.               (steps 5-6)
//
// Locks participate by registering (kernel subsystems would do this at
// boot); registration assigns the dense lock id used for selection and
// profiling. Selection supports exact instance names, "class:<name>" and
// "*" — the granularity spectrum §3.2 contrasts with lockstat.

#ifndef SRC_CONCORD_CONCORD_H_
#define SRC_CONCORD_CONCORD_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/trace.h"
#include "src/concord/policy.h"
#include "src/concord/profiler.h"
#include "src/sync/policy_hooks.h"
#include "src/sync/shfllock.h"

namespace concord {

class Concord {
 public:
  static constexpr std::uint64_t kMaxLocks = 4096;

  static Concord& Global();

  // --- registration ---------------------------------------------------------

  // Registers a ShflLock instance under `name` in `lock_class`. Returns the
  // lock id used by every other call. The lock must outlive registration.
  std::uint64_t RegisterShflLock(ShflLock& lock, std::string name,
                                 std::string lock_class);

  // Registers any readers-writer lock exposing hook_site() — BravoLock<...>
  // in this library.
  template <typename RwLockT>
  std::uint64_t RegisterRwLock(RwLockT& lock, std::string name,
                               std::string lock_class) {
    return Register(lock.hook_site(), LockKind::kRw, std::move(name),
                    std::move(lock_class));
  }

  // Detaches any policy, then removes the lock from the registry.
  Status Unregister(std::uint64_t lock_id);

  // --- selection -------------------------------------------------------------

  // "*" => all registered locks; "class:<c>" => every lock in class c;
  // anything else => exact instance name.
  std::vector<std::uint64_t> Select(const std::string& selector) const;
  StatusOr<std::uint64_t> Find(const std::string& name) const;
  std::string NameOf(std::uint64_t lock_id) const;

  // Structured registry listing for control planes / tooling.
  struct LockInfo {
    std::uint64_t lock_id = 0;
    std::string name;
    std::string lock_class;
    bool is_rw = false;
    bool has_policy = false;
    std::string policy_name;     // the attached spec's name
    bool profiling = false;
    bool tracing = false;        // flight-recorder runtime gate (src/base/trace.h)
  };
  std::vector<LockInfo> ListLocks(const std::string& selector = "*") const;

  // --- policy patching --------------------------------------------------------

  // Verifies `spec` and hot-swaps it onto the lock. Replaces any previously
  // attached policy atomically (readers see old or new, never a mix). Rejects
  // a spec with a hook the lock never consults. A spec with a hook budget
  // starts the control loop, whose containment pass enforces the budget.
  Status Attach(std::uint64_t lock_id, PolicySpec spec);

  // Attaches to every lock matched by `selector`; fails fast on first error.
  Status AttachBySelector(const std::string& selector, const PolicySpec& spec);

  // Removes any attached policy (lock reverts to default behaviour;
  // profiling, if enabled, stays).
  Status Detach(std::uint64_t lock_id);

  // --- containment plumbing (src/concord/containment.h) ----------------------

  // Detaches the policy's hook table but *parks* the spec on the entry so
  // ReattachFromQuarantine can restore it without the controller. Profiling
  // stays. Fails if no policy is attached.
  Status DetachForQuarantine(std::uint64_t lock_id);

  // Restores a policy parked by DetachForQuarantine (probation re-attach).
  Status ReattachFromQuarantine(std::uint64_t lock_id);

  // Name of the attached (or quarantine-parked) policy, "" if none.
  std::string AttachedPolicyName(std::uint64_t lock_id) const;

  // A policy whose installed table tripped: its budget's overruns reached
  // the trip threshold, or a dispatch fault was observed. Harvested — and
  // the trip flag cleared — by ContainmentRegistry::Poll(). overruns and
  // max_observed_ns are 0 for a policy without a budget.
  struct BudgetTrip {
    std::uint64_t lock_id = 0;
    std::string policy_name;
    std::uint64_t overruns = 0;
    std::uint64_t dispatch_faults = 0;
    std::uint64_t max_observed_ns = 0;
  };
  std::vector<BudgetTrip> HarvestBudgetTrips();

  // Budget accounting for the attached policy, nullptr unless the policy
  // sets a budget (PolicySpec::hook_budget_ns). It lives in the installed
  // table, so counters restart at every reinstall.
  const HookBudgetState* BudgetState(std::uint64_t lock_id) const;

  // --- dynamic profiling ------------------------------------------------------

  Status EnableProfiling(std::uint64_t lock_id);
  Status EnableProfilingBySelector(const std::string& selector);
  Status DisableProfiling(std::uint64_t lock_id);
  const ShardedLockProfileStats* Stats(std::uint64_t lock_id) const;
  // Containment needs to bump per-lock quarantine counters; tests use it to
  // feed synthetic samples into the watchdog's histograms. Control-plane
  // writers should target ControlShard().
  ShardedLockProfileStats* MutableStats(std::uint64_t lock_id);

  // Formatted report for all profiled locks matching `selector`.
  std::string ProfileReport(const std::string& selector = "*") const;

  // Machine-readable profiling stats for every profiled lock matching
  // `selector`: {"locks":[{"lock_id","name","class","stats":{...},
  // "policy_maps":[...]}]}. policy_maps holds a dump of each map owned by
  // the lock's attached policy spec (per-CPU maps aggregated per key — see
  // AppendMapDumpJson in trace_export.h); omitted when no policy is attached.
  std::string StatsJson(const std::string& selector = "*") const;

  // Dumps the maps of attached policies on locks matching `selector`:
  // {"locks":[{"lock_id","name","policy","maps":[<map dump>...]}]}. When
  // `map_name` is non-empty only maps with that name are included; errors
  // when the selector matches nothing. Backs the `map.dump` RPC verb.
  StatusOr<std::string> MapDumpJson(const std::string& selector,
                                    const std::string& map_name = "") const;

  // --- flight recorder (src/base/trace.h) -------------------------------------

  // Runtime per-lock trace gates. Tracing needs no policy or profiling
  // attachment — the recorder taps are compiled into the lock paths and cost
  // one branch per event site while disabled.
  Status EnableTracing(std::uint64_t lock_id);
  Status EnableTracingBySelector(const std::string& selector);
  Status DisableTracing(std::uint64_t lock_id);

  // Merged, ts-sorted snapshot of every thread's ring.
  std::vector<TraceEvent> TraceEvents() const;

  // Chrome trace-event JSON (Perfetto-loadable) of the current snapshot,
  // labeled with registered lock names.
  std::string TraceChromeJson() const;

  // --- autotune (src/concord/autotune/controller.h) ---------------------------

  // Enrolls every lock matched by `selector` into the adaptive policy
  // controller — enabling profiling on each — and puts the controller on the
  // process's control loop (src/concord/control_loop.h). Honors the
  // CONCORD_AUTOTUNE kill switch: when that environment variable is "0",
  // "off" or "false", this fails and nothing starts.
  Status EnableAutotune(const std::string& selector = "*");
  Status EnableAutotune(const std::string& selector,
                        const struct AutotuneConfig& config);

  // Takes the controller off the control loop. Enrollment and any
  // controller-attached policies stay as they are.
  Status DisableAutotune();

  // AutotuneController::StatusJson() passthrough.
  std::string AutotuneStatusJson() const;

  // Test-only: drops every registration. No lock may be under contention.
  void ResetForTest();

 private:
  enum class LockKind { kNone, kShfl, kRw };

  struct Entry {
    LockKind kind = LockKind::kNone;
    std::string name;
    std::string lock_class;
    HookSite* site = nullptr;

    // Current attachment state (control plane, guarded by mu_).
    std::shared_ptr<struct CompiledPolicy> current;
    std::shared_ptr<const PolicySpec> attached;
    // Parked by DetachForQuarantine for ReattachFromQuarantine.
    std::shared_ptr<const PolicySpec> quarantined;
    bool profiling = false;
    std::unique_ptr<ShardedLockProfileStats> stats;
    // Window boundary reported by StatsJson: ClockNowNs() at the most recent
    // EnableProfiling call (counters are cumulative since then).
    std::uint64_t profile_window_start_ns = 0;
  };

  Concord() = default;

  // Adds a registry entry for a lock's hook site.
  std::uint64_t Register(HookSite& site, LockKind kind, std::string name,
                         std::string lock_class);

  // Rebuilds the hook table from entry state and hot-swaps it in.
  // Pre: mu_ held.
  Status ReinstallLocked(std::uint64_t lock_id);

  Entry* EntryFor(std::uint64_t lock_id);
  const Entry* EntryFor(std::uint64_t lock_id) const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // index = lock_id - 1
};

}  // namespace concord

#endif  // SRC_CONCORD_CONCORD_H_
