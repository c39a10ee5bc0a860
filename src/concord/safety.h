// Runtime safety monitors (§4.2, §6).
//
// The verifier proves a policy cannot corrupt memory or loop forever; it
// cannot prove the policy is *fair*. Table 1 marks cmp_node/skip_shuffle
// with exactly this hazard. The lock already enforces the static shuffle-
// round bound and the queue-integrity recount; this module adds the last
// line of defence the paper's discussion calls for: a watchdog that observes
// a profiled lock at runtime and reports a policy that starves waiters past a
// configured bound to containment (src/concord/containment.h), which takes
// it off the lock and later re-attaches it on probation.

#ifndef SRC_CONCORD_SAFETY_H_
#define SRC_CONCORD_SAFETY_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "src/concord/concord.h"

namespace concord {

struct WatchdogConfig {
  // A completed acquisition that waited longer than this indicates
  // starvation-grade unfairness.
  std::uint64_t max_wait_ns = 1'000'000'000;  // 1s

  // Also flag when the p99 wait exceeds this multiple of the p50 wait
  // (skew-based detection; 0 disables).
  double p99_over_p50_limit = 0.0;

  // Quarantine the offending lock's policy on violation (it is re-attached
  // on probation after a backoff). When false, a violation is a containment
  // fault that marks the policy SUSPECT first.
  bool auto_detach = true;
};

class FairnessWatchdog {
 public:
  enum class ViolationKind {
    kMaxWaitExceeded,
    kWaitSkew,
  };

  struct Violation {
    std::uint64_t lock_id = 0;
    ViolationKind kind = ViolationKind::kMaxWaitExceeded;
    std::uint64_t observed_ns = 0;
    bool detached = false;
  };

  explicit FairnessWatchdog(WatchdogConfig config = WatchdogConfig{});
  ~FairnessWatchdog();
  FairnessWatchdog(const FairnessWatchdog&) = delete;
  FairnessWatchdog& operator=(const FairnessWatchdog&) = delete;

  // Starts watching `lock_id`. Enables Concord profiling on it (the stats
  // feed the detector). Idempotent.
  Status Watch(std::uint64_t lock_id);
  void Unwatch(std::uint64_t lock_id);

  // Joins / leaves the control loop (src/concord/control_loop.h), which runs
  // CheckOnce() every 10ms. The destructor leaves it.
  void Start();
  void Stop();

  // One synchronous detection pass (what the loop runs); exposed for
  // deterministic tests and for callers that poll on their own schedule.
  std::vector<Violation> CheckOnce();

  // The newest kMaxViolations violations, oldest first.
  std::vector<Violation> violations() const;
  static constexpr std::size_t kMaxViolations = 256;

 private:
  struct WatchState {
    std::uint64_t lock_id = 0;
    std::uint64_t last_flagged_max_ns = 0;
  };

  const WatchdogConfig config_;
  mutable std::mutex mu_;
  std::vector<WatchState> watched_;
  std::deque<Violation> violations_;
};

}  // namespace concord

#endif  // SRC_CONCORD_SAFETY_H_
