// Policy containment — crash-only semantics for attached policies.
//
// The verifier (layer 1) proves a policy terminates and cannot corrupt
// memory; the lock's static bounds (layer 2: shuffle-round cap, waiter-bypass
// cap, queue recount) limit how unfair any single decision can be. This
// module is layer 3: runtime containment. Every attached policy carries a
// health state:
//
//   ACTIVE --fault--> SUSPECT --fault--> QUARANTINED --backoff elapsed-->
//   PROBATION --clean interval--> ACTIVE
//                     PROBATION --fault--> QUARANTINED (backoff doubles)
//   QUARANTINED x (max_quarantines+1) --> BLACKLISTED (never re-attached)
//
// Quarantining detaches the policy's hook table (the lock reverts to stock
// behaviour; profiling stays) but *parks the spec* so probation can re-attach
// it without the controller's involvement. Three fault sources feed the
// machine, replacing their previous ad-hoc responses:
//   - FairnessWatchdog violations (src/concord/safety.h), previously a
//     silent one-shot detach;
//   - hook runtime-budget overruns and dispatch faults, harvested from
//     HookBudgetState trip flags (src/concord/hooks.h) — the hot path never
//     detaches (it runs inside an RCU read section where a synchronize would
//     deadlock), it only raises a flag that Poll() collects;
//   - JIT compile failures at attach, recorded as informational events (the
//     program interprets; no state change).
//
// Poll() runs the machine; the process's control loop
// (src/concord/control_loop.h) calls it every 10ms from the first budgeted
// attach or control-plane feature on.
//
// Lock ordering: the registry's mutex may be held while calling into
// Concord (which takes its own mutex); Concord never calls back into this
// registry while holding its mutex. All timestamps come from ClockNowNs()
// so tests drive backoff schedules with a FakeClock instead of sleeping.

#ifndef SRC_CONCORD_CONTAINMENT_H_
#define SRC_CONCORD_CONTAINMENT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/base/status.h"

namespace concord {

enum class PolicyHealth : std::uint8_t {
  kActive,       // attached, no recent faults
  kSuspect,      // faulted recently; next fault within the window quarantines
  kQuarantined,  // detached; spec parked; waiting out the backoff
  kProbation,    // re-attached; must stay clean to return to kActive
  kBlacklisted,  // exhausted max_quarantines; detached permanently
};

enum class ContainmentFault : std::uint8_t {
  kNone,
  kFairnessViolation,   // from FairnessWatchdog
  kBudgetOverrun,       // hook ran past its runtime budget too often
  kDispatchFault,       // helper/map/JIT fault observed inside dispatch
  kJitCompileFallback,  // informational: program fell back to interpreter
};

enum class ContainmentAction : std::uint8_t {
  kNone,           // recorded, no state change
  kMarkedSuspect,  // ACTIVE -> SUSPECT
  kQuarantined,    // * -> QUARANTINED (policy detached, spec parked)
  kReattached,     // QUARANTINED -> PROBATION (backoff elapsed)
  kRecovered,      // PROBATION -> ACTIVE (clean interval) or SUSPECT decay
  kBlacklisted,    // QUARANTINED -> BLACKLISTED
};

const char* PolicyHealthName(PolicyHealth health);
const char* ContainmentFaultName(ContainmentFault fault);
const char* ContainmentActionName(ContainmentAction action);

struct ContainmentEvent {
  std::uint64_t time_ns = 0;
  std::uint64_t lock_id = 0;
  std::string policy_name;
  ContainmentFault fault = ContainmentFault::kNone;
  ContainmentAction action = ContainmentAction::kNone;
  std::string detail;

  std::string Summary() const;
};

struct ContainmentConfig {
  // Faults within kSuspect needed to quarantine (counting the one that made
  // the policy suspect). <= 1 quarantines on the first fault.
  std::uint32_t quarantine_threshold = 2;

  // A suspect policy with no further faults for this long returns to kActive.
  std::uint64_t suspect_decay_ns = 1'000'000'000;  // 1s

  // Probation re-attach backoff: initial, multiplier per successive
  // quarantine, and cap.
  std::uint64_t initial_backoff_ns = 100'000'000;  // 100ms
  double backoff_multiplier = 2.0;
  std::uint64_t max_backoff_ns = 60'000'000'000;  // 60s

  // Quarantines beyond this count blacklist the policy permanently.
  std::uint32_t max_quarantines = 4;

  // A probation policy clean for this long returns to kActive (fault and
  // quarantine counters reset).
  std::uint64_t probation_success_ns = 1'000'000'000;  // 1s

  // When false, quarantined policies stay detached until the controller
  // re-attaches manually; the backoff schedule is still tracked.
  bool auto_reattach = true;
};

// Snapshot of one policy's containment state, for tests and tooling.
struct PolicyStatus {
  PolicyHealth health = PolicyHealth::kActive;
  std::string policy_name;
  std::uint32_t fault_count = 0;
  std::uint32_t quarantine_count = 0;
  std::uint64_t backoff_ns = 0;
  std::uint64_t probation_due_ns = 0;
};

class ContainmentRegistry {
 public:
  static ContainmentRegistry& Global();

  void SetConfig(const ContainmentConfig& config);
  ContainmentConfig config() const;

  // --- fault sources ---------------------------------------------------------

  // Generic fault entry point: advances the state machine for the policy on
  // `lock_id` (no-op event if the lock has no tracked policy).
  void ReportFault(std::uint64_t lock_id, ContainmentFault fault,
                   const std::string& detail);

  // FairnessWatchdog feed. `quarantine_now` skips kSuspect — a
  // starvation-grade wait is already past the point of a warning.
  void OnFairnessViolation(std::uint64_t lock_id, std::uint64_t observed_ns,
                           bool quarantine_now);

  // Attach-time JIT fallback: informational event only; the policy runs on
  // the interpreter and is otherwise healthy.
  void NoteJitFallback(std::uint64_t lock_id, const std::string& policy_name,
                       std::uint32_t failed_programs);

  // --- lifecycle plumbing (called by Concord, never under Concord's mutex) ---

  void OnManualAttach(std::uint64_t lock_id, const std::string& policy_name);
  void OnManualDetach(std::uint64_t lock_id);
  void Forget(std::uint64_t lock_id);

  // --- the poll step ---------------------------------------------------------

  // One containment pass: harvests HookBudgetState trips from Concord,
  // decays suspects, re-attaches quarantined policies whose backoff elapsed
  // (probation), and promotes clean probation policies back to kActive.
  // Returns the events generated by this pass. Deterministic under a
  // FakeClock; the chaos soak calls it directly.
  std::vector<ContainmentEvent> Poll();

  // --- introspection ---------------------------------------------------------

  std::optional<PolicyStatus> StatusOf(std::uint64_t lock_id) const;
  // kActive when the lock has no tracked policy.
  PolicyHealth HealthOf(std::uint64_t lock_id) const;
  // The newest kMaxEvents events, oldest first.
  std::vector<ContainmentEvent> events() const;
  std::string Report() const;

  // A policy that faults and decays once a second logs two events a second
  // for as long as the process lives; the log keeps this many.
  static constexpr std::size_t kMaxEvents = 256;

  void ResetForTest();

 private:
  struct State {
    std::string policy_name;
    PolicyHealth health = PolicyHealth::kActive;
    std::uint32_t fault_count = 0;
    std::uint32_t quarantine_count = 0;
    std::uint64_t last_fault_ns = 0;
    std::uint64_t backoff_ns = 0;
    std::uint64_t probation_due_ns = 0;
    std::uint64_t probation_since_ns = 0;
  };

  ContainmentRegistry() = default;

  // Pre: mu_ held. Appends generated events to events_ and `fresh`.
  void HandleFaultLocked(std::uint64_t lock_id, ContainmentFault fault,
                         const std::string& detail, bool quarantine_now,
                         std::vector<ContainmentEvent>* fresh);
  void QuarantineLocked(std::uint64_t lock_id, State& state,
                        ContainmentFault fault, const std::string& detail,
                        std::vector<ContainmentEvent>* fresh);
  void RecordLocked(std::uint64_t lock_id, const std::string& policy_name,
                    ContainmentFault fault, ContainmentAction action,
                    const std::string& detail,
                    std::vector<ContainmentEvent>* fresh);

  mutable std::mutex mu_;
  ContainmentConfig config_;
  std::map<std::uint64_t, State> states_;
  std::deque<ContainmentEvent> events_;
};

}  // namespace concord

#endif  // SRC_CONCORD_CONTAINMENT_H_
