#include "src/concord/autotune/controller.h"

#include <utility>

#include "src/base/fault.h"
#include "src/base/json.h"
#include "src/base/time.h"
#include "src/concord/concord.h"
#include "src/concord/containment.h"
#include "src/concord/control_loop.h"

namespace concord {

AutotuneController& AutotuneController::Global() {
  static AutotuneController* instance = new AutotuneController();
  return *instance;
}

AutotuneController::AutotuneController()
    : engine_({[this](const CanaryEngine::Lock& lock, ContentionRegime regime,
                      const std::vector<std::string>& skip) {
                 return registry_.CandidateFor(regime, lock.is_rw, skip).name;
               },
               [this](const CanaryEngine::Lock& lock, const std::string& name,
                      std::uint64_t, std::vector<AutotuneEvent>&) {
                 return ApplyCandidateLocked(lock.lock_id, name);
               }}) {}

Status AutotuneController::Configure(const AutotuneConfig& config) {
  if (running()) {
    return FailedPreconditionError("autotune: stop the controller first");
  }
  std::lock_guard<std::mutex> guard(mu_);
  config_ = config;
  engine_.set_config(config.canary);
  if (!seeded_) {
    registry_.SeedBuiltins();
    if (!config_.policy_dir.empty()) {
      registry_.SeedFromPolicyDir(config_.policy_dir);
    }
    seeded_ = true;
  }
  return Status::Ok();
}

AutotuneConfig AutotuneController::config() const {
  std::lock_guard<std::mutex> guard(mu_);
  return config_;
}

Status AutotuneController::Enroll(std::uint64_t lock_id) {
  auto& concord = Concord::Global();
  const auto infos = concord.ListLocks("*");
  const Concord::LockInfo* info = nullptr;
  for (const auto& candidate : infos) {
    if (candidate.lock_id == lock_id) {
      info = &candidate;
      break;
    }
  }
  if (info == nullptr) {
    return NotFoundError("autotune: unknown lock id");
  }
  CONCORD_RETURN_IF_ERROR(concord.EnableProfiling(lock_id));

  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& state : locks_) {
    if (state->lock_id == lock_id) {
      return Status::Ok();  // already enrolled
    }
  }
  auto state = std::make_unique<LockState>();
  state->lock_id = lock_id;
  state->name = info->name;
  state->is_rw = info->is_rw;
  state->hysteresis = RegimeHysteresis(config_.canary.hysteresis_windows);
  // A manually attached policy becomes the incumbent so a rollback restores
  // it rather than silently detaching the operator's choice.
  if (info->has_policy && !info->policy_name.empty() &&
      registry_.FindByName(info->policy_name).ok()) {
    state->incumbent = info->policy_name;
  }
  locks_.push_back(std::move(state));
  return Status::Ok();
}

Status AutotuneController::EnrollSelector(const std::string& selector) {
  const auto ids = Concord::Global().Select(selector);
  if (ids.empty()) {
    return NotFoundError("autotune: selector '" + selector +
                         "' matched no locks");
  }
  for (const std::uint64_t id : ids) {
    CONCORD_RETURN_IF_ERROR(Enroll(id));
  }
  return Status::Ok();
}

Status AutotuneController::Unenroll(std::uint64_t lock_id,
                                    bool detach_policy) {
  std::unique_lock<std::mutex> lock(mu_);
  for (auto it = locks_.begin(); it != locks_.end(); ++it) {
    if ((*it)->lock_id != lock_id) {
      continue;
    }
    locks_.erase(it);
    lock.unlock();
    if (detach_policy) {
      (void)Concord::Global().Detach(lock_id);  // ok if nothing attached
    }
    return Status::Ok();
  }
  return NotFoundError("autotune: lock not enrolled");
}

std::vector<std::uint64_t> AutotuneController::Enrolled() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<std::uint64_t> ids;
  ids.reserve(locks_.size());
  for (const auto& state : locks_) {
    ids.push_back(state->lock_id);
  }
  return ids;
}

Status AutotuneController::ApplyCandidateLocked(std::uint64_t lock_id,
                                                const std::string& name) {
  auto& concord = Concord::Global();
  if (name == kPlainCandidateName) {
    const Status status = concord.Detach(lock_id);
    // "no policy attached" counts as success: the goal state is plain.
    if (!status.ok() && !concord.AttachedPolicyName(lock_id).empty()) {
      return status;
    }
    return Status::Ok();
  }
  auto candidate = registry_.FindByName(name);
  CONCORD_RETURN_IF_ERROR(candidate.status());
  auto spec = candidate->make();
  CONCORD_RETURN_IF_ERROR(spec.status());
  return concord.Attach(lock_id, std::move(*spec));
}

void AutotuneController::TickLockLocked(LockState& state,
                                        std::uint64_t now_ns,
                                        std::vector<AutotuneEvent>& events) {
  auto& concord = Concord::Global();
  const ShardedLockProfileStats* stats = concord.Stats(state.lock_id);
  if (stats == nullptr) {
    return;  // lock unregistered or profiling disabled behind our back
  }

  // Sample: this window's delta.
  const LockProfileSnapshot snapshot = stats->Snapshot();
  if (!state.have_snapshot) {
    state.last_snapshot = snapshot;
    state.have_snapshot = true;
    return;
  }
  const LockProfileSnapshot window = snapshot.DeltaSince(state.last_snapshot);
  state.last_snapshot = snapshot;

  // Containment outranks everything: a quarantined lock gets no decisions,
  // and a canary is rolled back the moment the policy looks suspect.
  const PolicyHealth health = ContainmentRegistry::Global().HealthOf(state.lock_id);
  if (state.mode == CanaryEngine::Mode::kCanary &&
      (health == PolicyHealth::kSuspect ||
       health == PolicyHealth::kQuarantined ||
       health == PolicyHealth::kBlacklisted)) {
    engine_.FinishCanary(state, /*promote=*/false, AutotuneEventKind::kRollback,
                         "containment health degraded during canary", now_ns,
                         events);
    return;
  }
  if (state.mode == CanaryEngine::Mode::kObserving &&
      state.incumbent != kPlainCandidateName &&
      (health == PolicyHealth::kQuarantined ||
       health == PolicyHealth::kBlacklisted)) {
    const std::string quarantined = state.incumbent;
    engine_.AddSkip(state, quarantined);
    state.incumbent = kPlainCandidateName;
    state.cooldown = config_.canary.cooldown_windows;
    // Containment already detached the hooks; Detach clears the parked spec
    // so probation cannot resurrect a policy the tuner has given up on.
    (void)concord.Detach(state.lock_id);
    engine_.Emit(state, AutotuneEventKind::kQuarantineExit, quarantined,
                 "containment quarantined the promoted policy", now_ns,
                 events);
    return;
  }

  // Chaos hook: an armed "autotune.decide" fault wedges this lock's decision
  // step for the tick. Sampling above already happened — a wedged controller
  // loses decisions, never attachment-state consistency.
  if (CONCORD_FAULT_POINT("autotune.decide")) {
    return;
  }
  engine_.TickLock(state, window, now_ns, events);
}

std::vector<AutotuneEvent> AutotuneController::Tick() {
  std::vector<AutotuneEvent> events;
  const std::uint64_t now_ns = ClockNowNs();
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& state : locks_) {
    TickLockLocked(*state, now_ns, events);
  }
  return events;
}

void AutotuneController::Start() {
  running_.store(true, std::memory_order_release);
  ControlLoop::Global().Start();
}

void AutotuneController::Stop() {
  running_.store(false, std::memory_order_release);
}

std::string AutotuneController::StatusJson() const {
  std::lock_guard<std::mutex> guard(mu_);
  JsonWriter json;
  json.BeginObject();
  json.Key("running").Bool(running_.load(std::memory_order_acquire));
  json.NumberField("window_ns", config_.window_ns);
  std::vector<const CanaryEngine::Lock*> locks;
  for (const auto& state : locks_) {
    locks.push_back(state.get());
  }
  engine_.AppendStatusJson(json, registry_, locks);
  json.EndObject();
  return json.TakeString();
}

std::vector<AutotuneEvent> AutotuneController::RecentEvents(
    std::size_t max) const {
  std::lock_guard<std::mutex> guard(mu_);
  return engine_.RecentEvents(max);
}

void AutotuneController::ResetForTest() {
  Stop();
  std::lock_guard<std::mutex> guard(mu_);
  locks_.clear();
  engine_.ClearEvents();
  registry_.Clear();
  config_ = AutotuneConfig{};
  engine_.set_config(config_.canary);
  seeded_ = false;
}

}  // namespace concord
