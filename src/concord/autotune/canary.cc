#include "src/concord/autotune/canary.h"

#include <algorithm>
#include <utility>

namespace concord {

const char* AutotuneEventKindName(AutotuneEventKind kind) {
  switch (kind) {
    case AutotuneEventKind::kRegimeChange:
      return "regime-change";
    case AutotuneEventKind::kCanaryStart:
      return "canary-start";
    case AutotuneEventKind::kPromote:
      return "promote";
    case AutotuneEventKind::kRollback:
      return "rollback";
    case AutotuneEventKind::kCanaryAbort:
      return "canary-abort";
    case AutotuneEventKind::kQuarantineExit:
      return "quarantine-exit";
    case AutotuneEventKind::kError:
      return "error";
    case AutotuneEventKind::kWorkerJoin:
      return "worker-join";
    case AutotuneEventKind::kWorkerEvict:
      return "worker-evict";
  }
  return "unknown";
}

bool CanaryPromotes(const CanaryScore& score, double margin) {
  const double base_p99 = static_cast<double>(score.baseline_p99_ns);
  const double base_p50 = static_cast<double>(score.baseline_p50_ns);
  const bool p99_improves =
      static_cast<double>(score.canary_p99_ns) < base_p99 * (1.0 - margin);
  const bool p99_holds =
      static_cast<double>(score.canary_p99_ns) <= base_p99;
  const bool p50_improves =
      static_cast<double>(score.canary_p50_ns) < base_p50 * (1.0 - margin);
  return p99_improves || (p99_holds && p50_improves);
}

std::string CanaryScoreDetail(const CanaryScore& score) {
  return "p50 " + std::to_string(score.baseline_p50_ns) + "->" +
         std::to_string(score.canary_p50_ns) + "ns, p99 " +
         std::to_string(score.baseline_p99_ns) + "->" +
         std::to_string(score.canary_p99_ns) + "ns";
}

void CanaryEngine::Emit(const Lock& lock, AutotuneEventKind kind,
                        const std::string& candidate,
                        const std::string& detail, std::uint64_t now_ns,
                        std::vector<AutotuneEvent>& events) {
  Emit({now_ns, lock.lock_id, lock.name, kind, lock.hysteresis.stable(),
        candidate, detail},
       events);
}

void CanaryEngine::Emit(AutotuneEvent event,
                        std::vector<AutotuneEvent>& events) {
  events_.push_back(event);
  while (events_.size() > kMaxEvents) {
    events_.pop_front();
  }
  events.push_back(std::move(event));
}

std::vector<AutotuneEvent> CanaryEngine::RecentEvents(std::size_t max) const {
  const std::size_t count = std::min(max, events_.size());
  return std::vector<AutotuneEvent>(events_.end() - count, events_.end());
}

void CanaryEngine::AppendStatusJson(
    JsonWriter& json, const PolicyCandidateRegistry& registry,
    const std::vector<const Lock*>& locks) const {
  json.Key("candidates").BeginArray();
  for (const std::string& name : registry.Names()) {
    json.String(name);
  }
  json.EndArray();
  json.Key("locks").BeginArray();
  for (const Lock* lock : locks) {
    json.BeginObject();
    json.NumberField("lock_id", lock->lock_id);
    json.Field("name", lock->name);
    json.Field("regime", ContentionRegimeName(lock->hysteresis.stable()));
    const bool canary = lock->mode == Mode::kCanary;
    json.Field("mode", canary ? "canary" : "observing");
    json.Field("incumbent", lock->incumbent);
    json.NumberField("cooldown_windows", lock->cooldown);
    json.NumberField("baseline_wait_p50_ns", lock->baseline_p50_ns);
    json.NumberField("baseline_wait_p99_ns", lock->baseline_p99_ns);
    if (canary) {
      json.Key("canary").BeginObject();
      json.Field("candidate", lock->canary_candidate);
      json.NumberField("scored_windows", lock->canary_scored);
      json.NumberField("total_windows", lock->canary_total);
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
  json.Key("events").BeginArray();
  for (const AutotuneEvent& event : events_) {
    json.BeginObject();
    json.NumberField("ts_ns", event.ts_ns);
    json.NumberField("lock_id", event.lock_id);
    json.Field("lock", event.lock_name);
    json.NumberField("pid", event.worker_pid);
    json.Field("kind", AutotuneEventKindName(event.kind));
    json.Field("regime", ContentionRegimeName(event.regime));
    json.Field("candidate", event.candidate);
    json.Field("detail", event.detail);
    json.EndObject();
  }
  json.EndArray();
}

void CanaryEngine::AddSkip(Lock& lock, const std::string& name) const {
  for (SkipEntry& entry : lock.skip) {
    if (entry.name == name) {
      entry.windows_left = config_.failed_candidate_backoff_windows;
      return;
    }
  }
  lock.skip.push_back({name, config_.failed_candidate_backoff_windows});
}

bool CanaryEngine::RevertToPlain(Lock& lock, std::uint64_t now_ns,
                                 std::vector<AutotuneEvent>& events) {
  const Status status =
      plane_.apply(lock, kPlainCandidateName, now_ns, events);
  if (!status.ok()) {
    Emit(lock, AutotuneEventKind::kError, kPlainCandidateName,
         "revert failed: " + status.message(), now_ns, events);
  }
  return status.ok();
}

void CanaryEngine::StartCanary(Lock& lock, const std::string& candidate,
                               std::uint64_t now_ns,
                               std::vector<AutotuneEvent>& events) {
  const Status status = plane_.apply(lock, candidate, now_ns, events);
  if (!status.ok()) {
    AddSkip(lock, candidate);
    Emit(lock, AutotuneEventKind::kError, candidate,
         "canary attach failed: " + status.message(), now_ns, events);
    return;
  }
  lock.mode = Mode::kCanary;
  lock.canary_candidate = candidate;
  lock.canary_wait.Reset();
  lock.canary_scored = 0;
  lock.canary_total = 0;
  Emit(lock, AutotuneEventKind::kCanaryStart, candidate, "", now_ns, events);
}

void CanaryEngine::FinishCanary(Lock& lock, bool promote,
                                AutotuneEventKind kind,
                                const std::string& detail,
                                std::uint64_t now_ns,
                                std::vector<AutotuneEvent>& events) {
  const std::string candidate = lock.canary_candidate;
  lock.mode = Mode::kObserving;
  lock.canary_candidate.clear();
  lock.canary_wait.Reset();
  lock.canary_scored = 0;
  lock.canary_total = 0;
  lock.cooldown = config_.cooldown_windows;

  if (promote) {
    lock.incumbent = candidate;
  } else {
    AddSkip(lock, candidate);
    const Status status = plane_.apply(lock, lock.incumbent, now_ns, events);
    if (!status.ok()) {
      // Never leave the lock on a candidate that just lost, or split across
      // workers: fall back to plain.
      Emit(lock, AutotuneEventKind::kError, lock.incumbent,
           "restoring the incumbent failed, falling back to plain: " +
               status.message(),
           now_ns, events);
      RevertToPlain(lock, now_ns, events);
      lock.incumbent = kPlainCandidateName;
    }
  }
  Emit(lock, kind, candidate, detail, now_ns, events);
}

void CanaryEngine::TickLock(Lock& lock, const LockProfileSnapshot& window,
                            std::uint64_t now_ns,
                            std::vector<AutotuneEvent>& events) {
  const bool qualifies =
      window.acquisitions >= config_.min_window_acquisitions;

  // Classify (observation windows only — canary windows measure, not steer).
  if (lock.mode == Mode::kObserving && qualifies) {
    const ContentionRegime before = lock.hysteresis.stable();
    const ContentionRegime stable =
        lock.hysteresis.Observe(DefaultRegimeClassifier(config_.classifier)
                                    .Classify(RegimeSignals::FromWindow(
                                        window, lock.is_rw)));
    if (stable != before) {
      Emit(lock, AutotuneEventKind::kRegimeChange, "",
           std::string("from ") + ContentionRegimeName(before), now_ns,
           events);
    }
    lock.baseline_p50_ns = window.wait_ns.Percentile(50);
    lock.baseline_p99_ns = window.wait_ns.Percentile(99);
    lock.have_baseline = true;
  }

  // Decay per-window counters.
  for (SkipEntry& entry : lock.skip) {
    if (entry.windows_left > 0) {
      --entry.windows_left;
    }
  }
  if (lock.cooldown > 0) {
    --lock.cooldown;
    return;
  }

  if (lock.mode == Mode::kCanary) {
    ++lock.canary_total;
    if (qualifies) {
      lock.canary_wait.MergeFrom(window.wait_ns);
      ++lock.canary_scored;
    }
    if (lock.canary_scored < config_.canary_windows) {
      if (lock.canary_total >= config_.canary_windows * kCanaryPatience) {
        FinishCanary(lock, /*promote=*/false, AutotuneEventKind::kCanaryAbort,
                     "canary starved of samples", now_ns, events);
      }
      return;
    }
    const CanaryScore score = {lock.baseline_p50_ns, lock.baseline_p99_ns,
                               lock.canary_wait.Percentile(50),
                               lock.canary_wait.Percentile(99)};
    // A plain canary is promoted unless the incumbent beats it by the margin:
    // a policy stays only while it still wins, and a tie goes to plain.
    const bool promote =
        lock.canary_candidate == kPlainCandidateName
            ? !CanaryPromotes({score.canary_p50_ns, score.canary_p99_ns,
                               score.baseline_p50_ns, score.baseline_p99_ns},
                              config_.promote_margin)
            : CanaryPromotes(score, config_.promote_margin);
    FinishCanary(lock, promote,
                 promote ? AutotuneEventKind::kPromote
                         : AutotuneEventKind::kRollback,
                 CanaryScoreDetail(score), now_ns, events);
    return;
  }

  // Observing, no cooldown: act if the stable regime wants a different
  // policy than the incumbent.
  std::vector<std::string> skip;
  for (const SkipEntry& entry : lock.skip) {
    if (entry.windows_left > 0) {
      skip.push_back(entry.name);
    }
  }
  const ContentionRegime regime = lock.hysteresis.stable();
  const std::string target = plane_.choose(lock, regime, skip);
  if (target == lock.incumbent) {
    return;
  }
  if (target == kPlainCandidateName &&
      regime == ContentionRegime::kUncontended) {
    // An uncontended lock reverts to plain with no canary: detaching is
    // always safe, and it produces no samples to score anyway. Under
    // contention plain is a canary like any other candidate, since the
    // incumbent may be what removed the signal its regime was chosen on.
    if (RevertToPlain(lock, now_ns, events)) {
      const std::string previous = lock.incumbent;
      lock.incumbent = kPlainCandidateName;
      lock.cooldown = config_.cooldown_windows;
      Emit(lock, AutotuneEventKind::kPromote, kPlainCandidateName,
           "reverted from " + previous, now_ns, events);
    }
    return;
  }
  // choose() falls back to plain even while plain is backed off; the
  // incumbent holds until the backoff ends. A canary starts only from a
  // qualifying window: the baseline it is scored against must be this
  // window's, not a stale one.
  if (std::find(skip.begin(), skip.end(), target) != skip.end() ||
      !lock.have_baseline || !qualifies) {
    return;
  }
  StartCanary(lock, target, now_ns, events);
}

}  // namespace concord
