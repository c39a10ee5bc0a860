#include "src/concord/containment.h"

#include <algorithm>
#include <cstdio>

#include "src/base/time.h"
#include "src/base/trace.h"
#include "src/concord/concord.h"
#include "src/concord/profiler.h"

namespace concord {

const char* PolicyHealthName(PolicyHealth health) {
  switch (health) {
    case PolicyHealth::kActive:
      return "ACTIVE";
    case PolicyHealth::kSuspect:
      return "SUSPECT";
    case PolicyHealth::kQuarantined:
      return "QUARANTINED";
    case PolicyHealth::kProbation:
      return "PROBATION";
    case PolicyHealth::kBlacklisted:
      return "BLACKLISTED";
  }
  return "<?>";
}

const char* ContainmentFaultName(ContainmentFault fault) {
  switch (fault) {
    case ContainmentFault::kNone:
      return "none";
    case ContainmentFault::kFairnessViolation:
      return "fairness_violation";
    case ContainmentFault::kBudgetOverrun:
      return "budget_overrun";
    case ContainmentFault::kDispatchFault:
      return "dispatch_fault";
    case ContainmentFault::kJitCompileFallback:
      return "jit_compile_fallback";
  }
  return "<?>";
}

const char* ContainmentActionName(ContainmentAction action) {
  switch (action) {
    case ContainmentAction::kNone:
      return "none";
    case ContainmentAction::kMarkedSuspect:
      return "marked_suspect";
    case ContainmentAction::kQuarantined:
      return "quarantined";
    case ContainmentAction::kReattached:
      return "reattached";
    case ContainmentAction::kRecovered:
      return "recovered";
    case ContainmentAction::kBlacklisted:
      return "blacklisted";
  }
  return "<?>";
}

std::string ContainmentEvent::Summary() const {
  char line[256];
  std::snprintf(line, sizeof(line), "lock=%llu policy='%s' fault=%s action=%s",
                static_cast<unsigned long long>(lock_id), policy_name.c_str(),
                ContainmentFaultName(fault), ContainmentActionName(action));
  std::string out = line;
  if (!detail.empty()) {
    out += " (" + detail + ")";
  }
  return out;
}

ContainmentRegistry& ContainmentRegistry::Global() {
  static ContainmentRegistry* registry = new ContainmentRegistry();
  return *registry;
}

void ContainmentRegistry::SetConfig(const ContainmentConfig& config) {
  std::lock_guard<std::mutex> guard(mu_);
  config_ = config;
}

ContainmentConfig ContainmentRegistry::config() const {
  std::lock_guard<std::mutex> guard(mu_);
  return config_;
}

void ContainmentRegistry::RecordLocked(std::uint64_t lock_id,
                                       const std::string& policy_name,
                                       ContainmentFault fault,
                                       ContainmentAction action,
                                       const std::string& detail,
                                       std::vector<ContainmentEvent>* fresh) {
  ContainmentEvent event;
  event.time_ns = ClockNowNs();
  event.lock_id = lock_id;
  event.policy_name = policy_name;
  event.fault = fault;
  event.action = action;
  event.detail = detail;
  events_.push_back(event);
  if (events_.size() > kMaxEvents) {
    events_.pop_front();
  }
  if (fresh != nullptr) {
    fresh->push_back(std::move(event));
  }
}

void ContainmentRegistry::QuarantineLocked(std::uint64_t lock_id, State& state,
                                           ContainmentFault fault,
                                           const std::string& detail,
                                           std::vector<ContainmentEvent>* fresh) {
  state.quarantine_count += 1;
  state.fault_count = 0;
  if (state.quarantine_count > config_.max_quarantines) {
    state.health = PolicyHealth::kBlacklisted;
    state.backoff_ns = 0;
    state.probation_due_ns = 0;
    Concord::Global().DetachForQuarantine(lock_id);
    RecordLocked(lock_id, state.policy_name, fault,
                 ContainmentAction::kBlacklisted, detail, fresh);
    return;
  }
  // Exponential backoff: initial * multiplier^(quarantine_count - 1), capped.
  double backoff = static_cast<double>(config_.initial_backoff_ns);
  for (std::uint32_t i = 1; i < state.quarantine_count; ++i) {
    backoff *= config_.backoff_multiplier;
    if (backoff >= static_cast<double>(config_.max_backoff_ns)) {
      break;
    }
  }
  state.backoff_ns = std::min(
      config_.max_backoff_ns,
      static_cast<std::uint64_t>(backoff));
  state.probation_due_ns = ClockNowNs() + state.backoff_ns;
  state.health = PolicyHealth::kQuarantined;
  Concord::Global().DetachForQuarantine(lock_id);
  if (ShardedLockProfileStats* stats = Concord::Global().MutableStats(lock_id)) {
    stats->ControlShard().quarantines.fetch_add(1, std::memory_order_relaxed);
  }
  TraceRecord(lock_id, TraceEventKind::kQuarantine,
              static_cast<std::uint64_t>(fault));
  RecordLocked(lock_id, state.policy_name, fault, ContainmentAction::kQuarantined,
               detail + " backoff_ns=" + std::to_string(state.backoff_ns), fresh);
}

void ContainmentRegistry::HandleFaultLocked(std::uint64_t lock_id,
                                            ContainmentFault fault,
                                            const std::string& detail,
                                            bool quarantine_now,
                                            std::vector<ContainmentEvent>* fresh) {
  auto it = states_.find(lock_id);
  if (it == states_.end()) {
    // No tracked policy (stock lock, or profiling only): nothing to contain,
    // but the event is still worth the record.
    RecordLocked(lock_id, "", fault, ContainmentAction::kNone, detail, fresh);
    return;
  }
  State& state = it->second;
  state.last_fault_ns = ClockNowNs();
  switch (state.health) {
    case PolicyHealth::kActive:
      if (quarantine_now || config_.quarantine_threshold <= 1) {
        QuarantineLocked(lock_id, state, fault, detail, fresh);
        return;
      }
      state.health = PolicyHealth::kSuspect;
      state.fault_count = 1;
      RecordLocked(lock_id, state.policy_name, fault,
                   ContainmentAction::kMarkedSuspect, detail, fresh);
      return;
    case PolicyHealth::kSuspect:
      state.fault_count += 1;
      if (quarantine_now || state.fault_count >= config_.quarantine_threshold) {
        QuarantineLocked(lock_id, state, fault, detail, fresh);
        return;
      }
      RecordLocked(lock_id, state.policy_name, fault, ContainmentAction::kNone,
                   detail, fresh);
      return;
    case PolicyHealth::kProbation:
      // Any fault during probation re-quarantines immediately (backoff
      // doubles via the quarantine count).
      QuarantineLocked(lock_id, state, fault, detail, fresh);
      return;
    case PolicyHealth::kQuarantined:
    case PolicyHealth::kBlacklisted:
      // Already contained; stale fault reports (e.g. a watchdog pass racing
      // the detach) are recorded but change nothing.
      RecordLocked(lock_id, state.policy_name, fault, ContainmentAction::kNone,
                   detail, fresh);
      return;
  }
}

void ContainmentRegistry::ReportFault(std::uint64_t lock_id,
                                      ContainmentFault fault,
                                      const std::string& detail) {
  std::lock_guard<std::mutex> guard(mu_);
  HandleFaultLocked(lock_id, fault, detail, /*quarantine_now=*/false, nullptr);
}

void ContainmentRegistry::OnFairnessViolation(std::uint64_t lock_id,
                                              std::uint64_t observed_ns,
                                              bool quarantine_now) {
  std::lock_guard<std::mutex> guard(mu_);
  HandleFaultLocked(lock_id, ContainmentFault::kFairnessViolation,
                    "observed_ns=" + std::to_string(observed_ns), quarantine_now,
                    nullptr);
}

void ContainmentRegistry::NoteJitFallback(std::uint64_t lock_id,
                                          const std::string& policy_name,
                                          std::uint32_t failed_programs) {
  std::lock_guard<std::mutex> guard(mu_);
  RecordLocked(lock_id, policy_name, ContainmentFault::kJitCompileFallback,
               ContainmentAction::kNone,
               std::to_string(failed_programs) +
                   " program(s) fell back to the interpreter",
               nullptr);
}

void ContainmentRegistry::OnManualAttach(std::uint64_t lock_id,
                                         const std::string& policy_name) {
  std::lock_guard<std::mutex> guard(mu_);
  State state;
  state.policy_name = policy_name;
  states_[lock_id] = std::move(state);
}

void ContainmentRegistry::OnManualDetach(std::uint64_t lock_id) {
  std::lock_guard<std::mutex> guard(mu_);
  states_.erase(lock_id);
}

void ContainmentRegistry::Forget(std::uint64_t lock_id) {
  std::lock_guard<std::mutex> guard(mu_);
  states_.erase(lock_id);
}

std::vector<ContainmentEvent> ContainmentRegistry::Poll() {
  // Harvest budget trips first, *without* holding mu_ (Concord takes its own
  // mutex; the sanctioned ordering is containment -> concord, never nested
  // the other way).
  const std::vector<Concord::BudgetTrip> trips =
      Concord::Global().HarvestBudgetTrips();

  std::vector<ContainmentEvent> fresh;
  std::lock_guard<std::mutex> guard(mu_);
  for (const Concord::BudgetTrip& trip : trips) {
    const bool pure_fault = trip.dispatch_faults > 0 && trip.overruns == 0;
    const ContainmentFault fault = pure_fault
                                       ? ContainmentFault::kDispatchFault
                                       : ContainmentFault::kBudgetOverrun;
    std::string detail = "overruns=" + std::to_string(trip.overruns) +
                         " dispatch_faults=" +
                         std::to_string(trip.dispatch_faults) +
                         " max_ns=" + std::to_string(trip.max_observed_ns);
    HandleFaultLocked(trip.lock_id, fault, detail, /*quarantine_now=*/false,
                      &fresh);
  }

  const std::uint64_t now = ClockNowNs();
  for (auto& [lock_id, state] : states_) {
    switch (state.health) {
      case PolicyHealth::kSuspect:
        if (now - state.last_fault_ns >= config_.suspect_decay_ns) {
          state.health = PolicyHealth::kActive;
          state.fault_count = 0;
          RecordLocked(lock_id, state.policy_name, ContainmentFault::kNone,
                       ContainmentAction::kRecovered, "suspect decay", &fresh);
        }
        break;
      case PolicyHealth::kQuarantined:
        if (config_.auto_reattach && now >= state.probation_due_ns) {
          const Status status =
              Concord::Global().ReattachFromQuarantine(lock_id);
          if (status.ok()) {
            state.health = PolicyHealth::kProbation;
            state.probation_since_ns = now;
            RecordLocked(lock_id, state.policy_name, ContainmentFault::kNone,
                         ContainmentAction::kReattached,
                         "probation after backoff_ns=" +
                             std::to_string(state.backoff_ns),
                         &fresh);
          } else {
            RecordLocked(lock_id, state.policy_name, ContainmentFault::kNone,
                         ContainmentAction::kNone,
                         "re-attach failed: " + status.message(), &fresh);
          }
        }
        break;
      case PolicyHealth::kProbation:
        if (now - state.probation_since_ns >= config_.probation_success_ns) {
          state.health = PolicyHealth::kActive;
          state.fault_count = 0;
          state.quarantine_count = 0;
          state.backoff_ns = 0;
          state.probation_due_ns = 0;
          RecordLocked(lock_id, state.policy_name, ContainmentFault::kNone,
                       ContainmentAction::kRecovered, "probation clean", &fresh);
        }
        break;
      case PolicyHealth::kActive:
      case PolicyHealth::kBlacklisted:
        break;
    }
  }
  return fresh;
}

std::optional<PolicyStatus> ContainmentRegistry::StatusOf(
    std::uint64_t lock_id) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = states_.find(lock_id);
  if (it == states_.end()) {
    return std::nullopt;
  }
  PolicyStatus status;
  status.health = it->second.health;
  status.policy_name = it->second.policy_name;
  status.fault_count = it->second.fault_count;
  status.quarantine_count = it->second.quarantine_count;
  status.backoff_ns = it->second.backoff_ns;
  status.probation_due_ns = it->second.probation_due_ns;
  return status;
}

PolicyHealth ContainmentRegistry::HealthOf(std::uint64_t lock_id) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = states_.find(lock_id);
  return it == states_.end() ? PolicyHealth::kActive : it->second.health;
}

std::vector<ContainmentEvent> ContainmentRegistry::events() const {
  std::lock_guard<std::mutex> guard(mu_);
  return {events_.begin(), events_.end()};
}

std::string ContainmentRegistry::Report() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::string report;
  for (const auto& [lock_id, state] : states_) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "lock=%llu policy='%s' health=%s faults=%u quarantines=%u "
                  "backoff_ns=%llu\n",
                  static_cast<unsigned long long>(lock_id),
                  state.policy_name.c_str(), PolicyHealthName(state.health),
                  state.fault_count, state.quarantine_count,
                  static_cast<unsigned long long>(state.backoff_ns));
    report += line;
  }
  for (const ContainmentEvent& event : events_) {
    report += "  " + event.Summary() + "\n";
  }
  return report;
}

void ContainmentRegistry::ResetForTest() {
  std::lock_guard<std::mutex> guard(mu_);
  config_ = ContainmentConfig{};
  states_.clear();
  events_.clear();
}

}  // namespace concord
