// Autotune controller — the in-process plane of the adaptive policy control
// plane (docs/AUTOTUNE.md).
//
// Once per window the control loop (src/concord/control_loop.h) ticks the
// controller, which walks every enrolled lock:
//
//   sample   take a profiler Snapshot() and diff it against the previous one
//            (src/concord/profiler.h) to get this window's delta
//   contain  roll a canary back, or drop a promoted policy, when containment
//            has marked the lock's policy unhealthy
//   decide   hand the window to the canary engine (canary.h), which
//            classifies it and attaches candidates through Concord::Attach
//            and Concord::Detach
//
// Containment always wins: a canary is rolled back the moment its lock turns
// SUSPECT or QUARANTINED, and a promoted policy that gets QUARANTINED is
// detached and its candidate back-offed.
//
// Lock ordering: controller mu_ -> Concord mu_ (same direction as
// containment -> Concord; nothing calls back into the controller from
// inside Concord).
//
// The decision step per lock is guarded by the fault point
// "autotune.decide" (src/base/fault.h): when armed and firing, that lock's
// decision is skipped for the tick — the chaos harness uses this to prove a
// wedged controller cannot corrupt attachment state.

#ifndef SRC_CONCORD_AUTOTUNE_CONTROLLER_H_
#define SRC_CONCORD_AUTOTUNE_CONTROLLER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/concord/autotune/canary.h"
#include "src/concord/autotune/candidates.h"
#include "src/concord/profiler.h"

namespace concord {

class AutotuneController {
 public:
  static AutotuneController& Global();

  // Applies `config` and, on the first call, seeds the candidate registry
  // with the built-ins and config.policy_dir. Fails while the controller is
  // on the control loop.
  Status Configure(const AutotuneConfig& config);
  AutotuneConfig config() const;

  PolicyCandidateRegistry& registry() { return registry_; }

  // --- enrollment -----------------------------------------------------------

  // Starts managing `lock_id`: enables profiling and begins sampling. The
  // lock keeps any manually attached policy until the controller decides
  // otherwise.
  Status Enroll(std::uint64_t lock_id);
  Status EnrollSelector(const std::string& selector);
  // Stops managing the lock. Any controller-attached policy stays; pass
  // `detach_policy` to revert the lock to plain.
  Status Unenroll(std::uint64_t lock_id, bool detach_policy = false);
  std::vector<std::uint64_t> Enrolled() const;

  // --- the loop -------------------------------------------------------------

  // One decision pass over every enrolled lock; returns the events it
  // emitted. Deterministic given a FakeClock and synthetic profiler feeds —
  // tests call this directly under a ScopedManualControlLoop.
  std::vector<AutotuneEvent> Tick();

  // Joins / leaves the control loop, which then ticks the controller every
  // config().window_ns.
  void Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- introspection --------------------------------------------------------

  // {"running","window_ns"} and the keys CanaryEngine::AppendStatusJson
  // renders: "candidates", "locks", "events".
  std::string StatusJson() const;

  // Recent events (bounded ring, newest last).
  std::vector<AutotuneEvent> RecentEvents(std::size_t max = 64) const;

  // Leaves the loop, drops enrollment/state/events, clears the registry.
  void ResetForTest();

 private:
  struct LockState : CanaryEngine::Lock {
    bool have_snapshot = false;
    LockProfileSnapshot last_snapshot;
  };

  AutotuneController();

  void TickLockLocked(LockState& state, std::uint64_t now_ns,
                      std::vector<AutotuneEvent>& events);
  // Attaches candidate `name` ("plain" = detach).
  Status ApplyCandidateLocked(std::uint64_t lock_id, const std::string& name);

  mutable std::mutex mu_;
  AutotuneConfig config_;
  bool seeded_ = false;
  PolicyCandidateRegistry registry_;
  CanaryEngine engine_;
  std::vector<std::unique_ptr<LockState>> locks_;
  std::atomic<bool> running_{false};
};

}  // namespace concord

#endif  // SRC_CONCORD_AUTOTUNE_CONTROLLER_H_
