#include "src/concord/safety.h"

#include "src/concord/containment.h"
#include "src/concord/control_loop.h"

namespace concord {

FairnessWatchdog::FairnessWatchdog(WatchdogConfig config) : config_(config) {}

FairnessWatchdog::~FairnessWatchdog() { Stop(); }

Status FairnessWatchdog::Watch(std::uint64_t lock_id) {
  CONCORD_RETURN_IF_ERROR(Concord::Global().EnableProfiling(lock_id));
  std::lock_guard<std::mutex> guard(mu_);
  for (const WatchState& state : watched_) {
    if (state.lock_id == lock_id) {
      return Status::Ok();
    }
  }
  WatchState state;
  state.lock_id = lock_id;
  // Baseline: violations are only raised for waits observed from now on.
  const ShardedLockProfileStats* stats = Concord::Global().Stats(lock_id);
  state.last_flagged_max_ns =
      stats != nullptr ? stats->Snapshot().wait_ns.Max() : 0;
  watched_.push_back(state);
  return Status::Ok();
}

void FairnessWatchdog::Unwatch(std::uint64_t lock_id) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto it = watched_.begin(); it != watched_.end(); ++it) {
    if (it->lock_id == lock_id) {
      watched_.erase(it);
      return;
    }
  }
}

void FairnessWatchdog::Start() { ControlLoop::Global().Join(this); }

void FairnessWatchdog::Stop() { ControlLoop::Global().Leave(this); }

std::vector<FairnessWatchdog::Violation> FairnessWatchdog::CheckOnce() {
  std::vector<Violation> fresh;
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (WatchState& state : watched_) {
      const ShardedLockProfileStats* stats = Concord::Global().Stats(state.lock_id);
      if (stats == nullptr) {
        continue;
      }
      const Log2Histogram wait_ns = stats->Snapshot().wait_ns;
      const std::uint64_t max_wait = wait_ns.Max();
      if (max_wait > config_.max_wait_ns &&
          max_wait > state.last_flagged_max_ns) {
        Violation violation;
        violation.lock_id = state.lock_id;
        violation.kind = ViolationKind::kMaxWaitExceeded;
        violation.observed_ns = max_wait;
        violation.detached = config_.auto_detach;
        fresh.push_back(violation);
        state.last_flagged_max_ns = max_wait;
        continue;
      }
      if (config_.p99_over_p50_limit > 0 && wait_ns.TotalCount() >= 100) {
        const std::uint64_t p50 = wait_ns.Percentile(50);
        const std::uint64_t p99 = wait_ns.Percentile(99);
        if (p50 > 0 &&
            static_cast<double>(p99) >
                static_cast<double>(p50) * config_.p99_over_p50_limit &&
            p99 > state.last_flagged_max_ns) {
          Violation violation;
          violation.lock_id = state.lock_id;
          violation.kind = ViolationKind::kWaitSkew;
          violation.observed_ns = p99;
          violation.detached = config_.auto_detach;
          fresh.push_back(violation);
          state.last_flagged_max_ns = p99;
        }
      }
    }
    for (const Violation& violation : fresh) {
      violations_.push_back(violation);
      if (violations_.size() > kMaxViolations) {
        violations_.pop_front();
      }
    }
  }
  // Act outside mu_ (containment and Concord have their own locks; avoid
  // ordering surprises). A violation becomes a recorded containment fault;
  // auto_detach maps to an immediate quarantine — the policy is parked for
  // probation re-attach instead of silently dropped forever.
  for (const Violation& violation : fresh) {
    ContainmentRegistry::Global().OnFairnessViolation(
        violation.lock_id, violation.observed_ns,
        /*quarantine_now=*/config_.auto_detach);
  }
  return fresh;
}

std::vector<FairnessWatchdog::Violation> FairnessWatchdog::violations() const {
  std::lock_guard<std::mutex> guard(mu_);
  return {violations_.begin(), violations_.end()};
}

}  // namespace concord
