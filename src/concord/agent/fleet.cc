#include "src/concord/agent/fleet.h"

#include <signal.h>

#include <cerrno>
#include <utility>

#include "src/base/fault.h"
#include "src/base/json.h"
#include "src/base/time.h"
#include "src/concord/control_loop.h"
#include "src/concord/rpc/client.h"

namespace concord {

namespace {

// One worker's window for a lock, added into the fleet-wide window. Counters
// add, histograms merge, the window bounds widen to cover every contributor
// (each worker stamps its own publishes, but all of them read the same
// system-wide CLOCK_MONOTONIC).
void MergeWindow(const LockProfileSnapshot& delta,
                 LockProfileSnapshot& merged) {
  merged.Add(delta);
  merged.wait_ns.MergeFrom(delta.wait_ns);
  merged.hold_ns.MergeFrom(delta.hold_ns);
  if (merged.window_start_ns == 0 ||
      (delta.window_start_ns != 0 &&
       delta.window_start_ns < merged.window_start_ns)) {
    merged.window_start_ns = delta.window_start_ns;
  }
  if (delta.taken_at_ns > merged.taken_at_ns) {
    merged.taken_at_ns = delta.taken_at_ns;
  }
}

}  // namespace

FleetAgent& FleetAgent::Global() {
  static FleetAgent* instance = new FleetAgent();
  return *instance;
}

FleetAgent::FleetAgent()
    : engine_({[this](const CanaryEngine::Lock& lock, ContentionRegime regime,
                      const std::vector<std::string>& skip) {
                 return registry_.CandidateFor(regime, lock.is_rw, skip).name;
               },
               [this](const CanaryEngine::Lock& lock, const std::string& name,
                      std::uint64_t now_ns,
                      std::vector<AutotuneEvent>& events) {
                 return PushToFleetLocked(lock, name, now_ns, events);
               }}) {}

Status FleetAgent::Configure(const FleetAgentConfig& config) {
  std::lock_guard<std::mutex> guard(mu_);
  if (running_.load(std::memory_order_acquire)) {
    return FailedPreconditionError(
        "fleet agent: cannot reconfigure while running");
  }
  config_ = config;
  engine_.set_config(config.canary);
  if (!config.policy_dir.empty()) {
    (void)registry_.SeedFromPolicyDir(config.policy_dir);
  }
  return Status::Ok();
}

FleetAgentConfig FleetAgent::config() const {
  std::lock_guard<std::mutex> guard(mu_);
  return config_;
}

Status FleetAgent::RegisterWorker(std::uint64_t pid,
                                  const std::string& shm_path,
                                  const std::string& control_socket) {
  if (pid == 0 || shm_path.empty() || control_socket.empty()) {
    return InvalidArgumentError(
        "agent.register needs pid, shm path and control socket");
  }
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<AutotuneEvent> events;
  // Re-registration (worker restart, or a retry whose first response was
  // lost) replaces the entry wholesale: fresh reader, fresh baselines.
  for (auto it = workers_.begin(); it != workers_.end(); ++it) {
    if ((*it)->pid == pid) {
      workers_.erase(it);
      break;
    }
  }
  auto worker = std::make_unique<Worker>();
  worker->pid = pid;
  worker->shm_path = shm_path;
  worker->control_socket = control_socket;
  workers_.push_back(std::move(worker));
  engine_.Emit({ClockNowNs(), 0, "", AutotuneEventKind::kWorkerJoin,
                ContentionRegime::kUncontended, "", "shm=" + shm_path, pid},
               events);
  return Status::Ok();
}

Status FleetAgent::LeaveWorker(std::uint64_t pid) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto it = workers_.begin(); it != workers_.end(); ++it) {
    if ((*it)->pid == pid) {
      workers_.erase(it);
      return Status::Ok();
    }
  }
  return NotFoundError("no registered worker with pid " + std::to_string(pid));
}

std::size_t FleetAgent::WorkerCount() const {
  std::lock_guard<std::mutex> guard(mu_);
  return workers_.size();
}

// --- sampling ----------------------------------------------------------------

bool FleetAgent::SampleWorkerLocked(
    Worker& worker, std::map<std::string, LockProfileSnapshot>& merged,
    std::string* evict_reason) {
  // Liveness first: a dead pid is an immediate eviction, not a stale count.
  // (EPERM still means "exists"; only ESRCH is death.)
  if (::kill(static_cast<pid_t>(worker.pid), 0) != 0 && errno == ESRCH) {
    *evict_reason = "process exited";
    return false;
  }

  const auto transient_failure = [&](const std::string& what) {
    ++worker.stale_ticks;
    if (worker.stale_ticks >= config_.evict_after_stale_ticks) {
      *evict_reason = what;
      return false;
    }
    return true;
  };

  // Chaos hook: an armed "agent.shm_map" fault makes this tick's segment
  // access fail (and drops any existing mapping, as a failed re-map would).
  if (CONCORD_FAULT_POINT("agent.shm_map")) {
    worker.reader.reset();
    return transient_failure("injected agent.shm_map fault");
  }

  if (worker.reader == nullptr) {
    auto reader = ShmSegmentReader::Map(worker.shm_path);
    if (!reader.ok()) {
      if (reader.status().code() == StatusCode::kInvalidArgument) {
        *evict_reason = reader.status().message();
        return false;
      }
      return transient_failure("segment unreadable: " +
                               reader.status().message());
    }
    worker.reader = std::move(*reader);
  }

  auto sample = worker.reader->Read();
  if (!sample.ok()) {
    if (sample.status().code() == StatusCode::kInvalidArgument) {
      // Permanent corruption (bad magic/version/checksum, truncation).
      *evict_reason = sample.status().message();
      return false;
    }
    return transient_failure("segment unstable: " +
                             sample.status().message());
  }

  if (!worker.have_sample) {
    // First successful read is the baseline; windows start next tick.
    worker.have_sample = true;
    worker.stale_ticks = 0;
    worker.last_publish_count = sample->publish_count;
    for (const ShmLockSample& lock : sample->locks) {
      worker.last_by_lock[lock.name] = lock.snapshot;
    }
    return true;
  }

  if (sample->publish_count == worker.last_publish_count) {
    // Readable but not advancing: the exporter (and so probably the worker)
    // is wedged. Progress-based on purpose — an agent under FakeClock still
    // sees a real worker stalling.
    return transient_failure("stale segment: no publish progress");
  }

  worker.stale_ticks = 0;
  worker.last_publish_count = sample->publish_count;
  for (const ShmLockSample& lock : sample->locks) {
    auto prev = worker.last_by_lock.find(lock.name);
    if (prev != worker.last_by_lock.end()) {
      MergeWindow(lock.snapshot.DeltaSince(prev->second), merged[lock.name]);
    }
    worker.last_by_lock[lock.name] = lock.snapshot;
  }
  return true;
}

void FleetAgent::EvictWorkerPidLocked(std::uint64_t pid,
                                      const std::string& reason,
                                      std::uint64_t now_ns,
                                      std::vector<AutotuneEvent>& events) {
  for (auto it = workers_.begin(); it != workers_.end(); ++it) {
    if ((*it)->pid == pid) {
      engine_.Emit({now_ns, 0, "", AutotuneEventKind::kWorkerEvict,
                    ContentionRegime::kUncontended, "", reason, pid},
                   events);
      workers_.erase(it);
      return;
    }
  }
}

// --- policy pushes -----------------------------------------------------------

Status FleetAgent::PushToWorkerLocked(Worker& worker,
                                      const std::string& lock_name,
                                      const std::string& name,
                                      bool* transport_failed) {
  *transport_failed = false;
  const bool plain = name == kPlainCandidateName;
  JsonWriter params;
  params.BeginObject();
  params.Field("selector", lock_name);
  if (!plain) {
    auto candidate = registry_.FindByName(name);
    CONCORD_RETURN_IF_ERROR(candidate.status());
    if (candidate->source.empty()) {
      return FailedPreconditionError("candidate '" + name +
                                     "' is built in: no source to push");
    }
    params.Field("name", name);
    params.Field("source", candidate->source);
  }
  params.EndObject();

  RpcClientOptions options;
  options.socket_path = worker.control_socket;
  options.timeout_ms = kPushTimeoutMs;
  options.max_attempts = 1;
  RpcClient client(options);
  const std::string verb = plain ? "policy.detach" : "policy.attach";
  auto response = client.CallOnce(verb, params.TakeString());
  if (!response.ok()) {
    *transport_failed = true;
    return response.status();
  }
  // A detach's not_found means the worker has no such lock (or nothing
  // attached): plain is already a fact there, not a failure.
  if (!response->ok && !(plain && response->error_code == "not_found")) {
    return InternalError(verb + " rejected (" + response->error_code +
                         "): " + response->error_message);
  }
  return Status::Ok();
}

Status FleetAgent::PushToFleetLocked(const CanaryEngine::Lock& lock,
                                     const std::string& name,
                                     std::uint64_t now_ns,
                                     std::vector<AutotuneEvent>& events) {
  const auto push = [&](const std::string& policy) {
    std::vector<std::pair<std::uint64_t, std::string>> evictions;
    Status first_rejection = Status::Ok();
    for (auto& worker : workers_) {
      bool transport_failed = false;
      const Status status =
          PushToWorkerLocked(*worker, lock.name, policy, &transport_failed);
      if (transport_failed) {
        // Worker unreachable on its own socket: dead or wedged. Evicting
        // here (instead of failing the push) is what keeps one killed
        // worker from blocking or rolling back the surviving fleet.
        evictions.emplace_back(worker->pid,
                               "policy push failed: " + status.message());
      } else if (!status.ok() && first_rejection.ok()) {
        first_rejection = status;
      }
    }
    for (const auto& [pid, reason] : evictions) {
      EvictWorkerPidLocked(pid, reason, now_ns, events);
    }
    return first_rejection;
  };
  const Status status = push(name);
  if (!status.ok() && name != lock.incumbent) {
    (void)push(lock.incumbent);  // never leave the fleet split
  }
  return status;
}

bool FleetAgent::SyncWorkerLocked(Worker& worker, std::uint64_t now_ns,
                                  std::vector<AutotuneEvent>& events,
                                  std::string* evict_reason) {
  for (const auto& [lock_name, state] : locks_) {
    const std::string effective = state->mode == CanaryEngine::Mode::kCanary
                                      ? state->canary_candidate
                                      : state->incumbent;
    if (effective == kPlainCandidateName) {
      continue;  // a fresh worker is already plain
    }
    bool transport_failed = false;
    const Status status =
        PushToWorkerLocked(worker, lock_name, effective, &transport_failed);
    if (transport_failed) {
      *evict_reason = "policy sync failed: " + status.message();
      return false;
    }
    if (!status.ok()) {
      engine_.Emit({now_ns, 0, lock_name, AutotuneEventKind::kError,
                    ContentionRegime::kUncontended, effective,
                    "sync rejected: " + status.message(), worker.pid},
                   events);
    }
  }
  return true;
}

// --- the loop ----------------------------------------------------------------

std::vector<AutotuneEvent> FleetAgent::Tick() {
  std::lock_guard<std::mutex> guard(mu_);
  const std::uint64_t now_ns = ClockNowNs();
  std::vector<AutotuneEvent> events;

  // Sample phase: read every worker's segment, evicting the unreadable.
  std::map<std::string, LockProfileSnapshot> merged;
  std::vector<std::pair<std::uint64_t, std::string>> evictions;
  for (auto& worker : workers_) {
    std::string reason;
    if (!SampleWorkerLocked(*worker, merged, &reason)) {
      evictions.emplace_back(worker->pid, reason);
    }
  }
  for (const auto& [pid, reason] : evictions) {
    EvictWorkerPidLocked(pid, reason, now_ns, events);
  }

  // Sync phase: late joiners converge onto the fleet's current policies.
  evictions.clear();
  for (auto& worker : workers_) {
    if (!worker->needs_sync) {
      continue;
    }
    std::string reason;
    if (SyncWorkerLocked(*worker, now_ns, events, &reason)) {
      worker->needs_sync = false;
    } else {
      evictions.emplace_back(worker->pid, reason);
    }
  }
  for (const auto& [pid, reason] : evictions) {
    EvictWorkerPidLocked(pid, reason, now_ns, events);
  }

  // Chaos hook: an armed "agent.merge" fault wedges the decision phase for
  // the tick. Sampling above already happened — a wedged agent loses
  // decisions, never membership or attachment-state consistency (mirrors
  // "autotune.decide").
  if (CONCORD_FAULT_POINT("agent.merge")) {
    return events;
  }

  // Decision phase: one fleet-wide canary per lock name.
  for (auto& [name, window] : merged) {
    auto it = locks_.find(name);
    if (it == locks_.end()) {
      auto state = std::make_unique<CanaryEngine::Lock>();
      state->name = name;
      state->hysteresis = RegimeHysteresis(config_.canary.hysteresis_windows);
      it = locks_.emplace(name, std::move(state)).first;
    }
    engine_.TickLock(*it->second, window, now_ns, events);
  }
  return events;
}

void FleetAgent::Start() {
  running_.store(true, std::memory_order_release);
  ControlLoop::Global().Start();
}

void FleetAgent::Stop() { running_.store(false, std::memory_order_release); }

// --- introspection -----------------------------------------------------------

std::string FleetAgent::StatusJson() const {
  std::lock_guard<std::mutex> guard(mu_);
  JsonWriter json;
  json.BeginObject();
  json.Key("running").Bool(running_.load(std::memory_order_acquire));
  json.NumberField("window_ns", config_.window_ns);
  json.NumberField("worker_count",
                   static_cast<std::uint64_t>(workers_.size()));
  json.Key("workers").BeginArray();
  for (const auto& worker : workers_) {
    json.BeginObject();
    json.NumberField("pid", worker->pid);
    json.Field("shm", worker->shm_path);
    json.Field("socket", worker->control_socket);
    json.NumberField("publish_count", worker->last_publish_count);
    json.NumberField("stale_ticks", worker->stale_ticks);
    json.NumberField("locks_seen",
                     static_cast<std::uint64_t>(worker->last_by_lock.size()));
    json.Key("synced").Bool(!worker->needs_sync);
    json.EndObject();
  }
  json.EndArray();
  std::vector<const CanaryEngine::Lock*> locks;
  for (const auto& [name, state] : locks_) {
    locks.push_back(state.get());
  }
  engine_.AppendStatusJson(json, registry_, locks);
  json.EndObject();
  return json.TakeString();
}

std::vector<AutotuneEvent> FleetAgent::RecentEvents(std::size_t max) const {
  std::lock_guard<std::mutex> guard(mu_);
  return engine_.RecentEvents(max);
}

void FleetAgent::ResetForTest() {
  Stop();
  std::lock_guard<std::mutex> guard(mu_);
  workers_.clear();
  locks_.clear();
  registry_.Clear();
  engine_.ClearEvents();
  config_ = FleetAgentConfig{};
  engine_.set_config(config_.canary);
}

}  // namespace concord
