#include "src/concord/containment.h"

#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <optional>

#include "src/base/fault.h"
#include "src/base/time.h"
#include "src/bpf/jit/jit.h"
#include "src/concord/concord.h"
#include "src/concord/control_loop.h"
#include "src/concord/policies.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

class ContainmentTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Concord::Global().ResetForTest();  // also resets the containment registry
#if CONCORD_FAULT_INJECTION
    FaultRegistry::Global().DisarmAll();
#endif
  }

  std::uint64_t RegisterWithPolicy() {
    Concord& concord = Concord::Global();
    const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
    auto policy = MakeNumaGroupingPolicy();
    EXPECT_TRUE(policy.ok());
    EXPECT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());
    return id;
  }

  static bool HasPolicy(std::uint64_t id) {
    for (const auto& info : Concord::Global().ListLocks()) {
      if (info.lock_id == id) {
        return info.has_policy;
      }
    }
    return false;
  }

  static bool HasEvent(ContainmentFault fault, ContainmentAction action) {
    for (const ContainmentEvent& event : ContainmentRegistry::Global().events()) {
      if (event.fault == fault && event.action == action) {
        return true;
      }
    }
    return false;
  }

  // These tests Poll() by hand; the one that drives the real loop resets it.
  std::optional<ScopedManualControlLoop> manual_loop_{std::in_place};
  ShflLock lock_;
};

TEST_F(ContainmentTest, RepeatedFaultsMarkSuspectThenQuarantine) {
  ScopedFakeClock fake(1'000'000);
  const std::uint64_t id = RegisterWithPolicy();
  ContainmentRegistry& registry = ContainmentRegistry::Global();

  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kActive);
  registry.ReportFault(id, ContainmentFault::kBudgetOverrun, "first");
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kSuspect);
  EXPECT_TRUE(HasPolicy(id));  // suspect does not detach

  registry.ReportFault(id, ContainmentFault::kBudgetOverrun, "second");
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  // Quarantine detached the hook table but parked the spec.
  EXPECT_FALSE(HasPolicy(id));
  EXPECT_EQ(Concord::Global().AttachedPolicyName(id), "numa_grouping");

  EXPECT_TRUE(HasEvent(ContainmentFault::kBudgetOverrun,
                       ContainmentAction::kMarkedSuspect));
  EXPECT_TRUE(
      HasEvent(ContainmentFault::kBudgetOverrun, ContainmentAction::kQuarantined));
}

TEST_F(ContainmentTest, ReattachFollowsExponentialBackoffSchedule) {
  ScopedFakeClock fake(1'000'000);
  const std::uint64_t id = RegisterWithPolicy();
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  ContainmentConfig config;
  config.quarantine_threshold = 1;  // quarantine on first fault
  config.initial_backoff_ns = 100'000'000;  // 100ms
  config.backoff_multiplier = 2.0;
  config.probation_success_ns = 1'000'000'000;
  registry.SetConfig(config);

  registry.ReportFault(id, ContainmentFault::kFairnessViolation, "hostile");
  ASSERT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  ASSERT_EQ(registry.StatusOf(id)->backoff_ns, 100'000'000u);

  // No early re-attach: one tick before the deadline nothing happens.
  registry.Poll();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  fake.clock().AdvanceMs(99);
  registry.Poll();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  EXPECT_FALSE(HasPolicy(id));

  // At the deadline the policy goes back on the lock, on probation.
  fake.clock().AdvanceMs(1);
  registry.Poll();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kProbation);
  EXPECT_TRUE(HasPolicy(id));
  EXPECT_TRUE(
      HasEvent(ContainmentFault::kNone, ContainmentAction::kReattached));

  // A fault during probation re-quarantines and the backoff doubles.
  registry.ReportFault(id, ContainmentFault::kFairnessViolation, "again");
  ASSERT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  EXPECT_EQ(registry.StatusOf(id)->backoff_ns, 200'000'000u);
  fake.clock().AdvanceMs(199);
  registry.Poll();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  fake.clock().AdvanceMs(1);
  registry.Poll();
  ASSERT_EQ(registry.HealthOf(id), PolicyHealth::kProbation);

  // A clean probation interval restores kActive and resets the counters.
  fake.clock().AdvanceMs(1'000);
  registry.Poll();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kActive);
  EXPECT_EQ(registry.StatusOf(id)->quarantine_count, 0u);
  EXPECT_TRUE(HasEvent(ContainmentFault::kNone, ContainmentAction::kRecovered));
}

TEST_F(ContainmentTest, BackoffIsCappedAtMax) {
  ScopedFakeClock fake(1'000'000);
  const std::uint64_t id = RegisterWithPolicy();
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  ContainmentConfig config;
  config.quarantine_threshold = 1;
  config.initial_backoff_ns = 100'000'000;
  config.backoff_multiplier = 10.0;
  config.max_backoff_ns = 500'000'000;
  registry.SetConfig(config);

  registry.ReportFault(id, ContainmentFault::kBudgetOverrun, "1");
  EXPECT_EQ(registry.StatusOf(id)->backoff_ns, 100'000'000u);
  fake.clock().AdvanceMs(100);
  registry.Poll();  // probation
  registry.ReportFault(id, ContainmentFault::kBudgetOverrun, "2");
  // 100ms * 10 = 1s, capped at 500ms.
  EXPECT_EQ(registry.StatusOf(id)->backoff_ns, 500'000'000u);
}

TEST_F(ContainmentTest, BlacklistAfterMaxQuarantines) {
  ScopedFakeClock fake(1'000'000);
  const std::uint64_t id = RegisterWithPolicy();
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  ContainmentConfig config;
  config.quarantine_threshold = 1;
  config.initial_backoff_ns = 1'000'000;
  config.max_quarantines = 1;
  registry.SetConfig(config);

  registry.ReportFault(id, ContainmentFault::kDispatchFault, "1");
  ASSERT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  fake.clock().AdvanceMs(1);
  registry.Poll();
  ASSERT_EQ(registry.HealthOf(id), PolicyHealth::kProbation);

  registry.ReportFault(id, ContainmentFault::kDispatchFault, "2");
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kBlacklisted);
  EXPECT_FALSE(HasPolicy(id));
  EXPECT_TRUE(
      HasEvent(ContainmentFault::kDispatchFault, ContainmentAction::kBlacklisted));

  // Blacklisted policies never come back, no matter how long we wait.
  fake.clock().AdvanceMs(100'000);
  registry.Poll();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kBlacklisted);
  EXPECT_FALSE(HasPolicy(id));
}

TEST_F(ContainmentTest, SuspectDecaysBackToActive) {
  ScopedFakeClock fake(1'000'000);
  const std::uint64_t id = RegisterWithPolicy();
  ContainmentRegistry& registry = ContainmentRegistry::Global();

  registry.ReportFault(id, ContainmentFault::kBudgetOverrun, "blip");
  ASSERT_EQ(registry.HealthOf(id), PolicyHealth::kSuspect);

  fake.clock().AdvanceMs(999);
  registry.Poll();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kSuspect);
  fake.clock().AdvanceMs(1);  // default suspect_decay_ns = 1s
  registry.Poll();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kActive);
  EXPECT_EQ(registry.StatusOf(id)->fault_count, 0u);
}

// Two events a cycle, forever: the log keeps the newest 256, oldest first.
TEST_F(ContainmentTest, FaultAndDecayCyclesKeepTheNewest256Events) {
  ScopedFakeClock fake(1'000'000);
  const std::uint64_t id = RegisterWithPolicy();
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  const std::uint64_t start_ns = ClockNowNs();
  for (int i = 0; i < 300; ++i) {
    registry.ReportFault(id, ContainmentFault::kBudgetOverrun, "blip");
    fake.clock().AdvanceMs(1'000);  // default suspect_decay_ns = 1s
    registry.Poll();
  }
  const std::vector<ContainmentEvent> events = registry.events();
  ASSERT_EQ(events.size(), 256u);
  // 600 events: the kept ones start at cycle 172's fault.
  EXPECT_EQ(events.front().action, ContainmentAction::kMarkedSuspect);
  EXPECT_EQ(events.front().time_ns, start_ns + 172 * 1'000'000'000ull);
  EXPECT_EQ(events.back().action, ContainmentAction::kRecovered);
  EXPECT_EQ(events.back().time_ns, ClockNowNs());
}

TEST_F(ContainmentTest, AutoReattachCanBeDisabled) {
  ScopedFakeClock fake(1'000'000);
  const std::uint64_t id = RegisterWithPolicy();
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  ContainmentConfig config;
  config.quarantine_threshold = 1;
  config.initial_backoff_ns = 1'000'000;
  config.auto_reattach = false;
  registry.SetConfig(config);

  registry.ReportFault(id, ContainmentFault::kBudgetOverrun, "x");
  ASSERT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  fake.clock().AdvanceMs(10'000);
  registry.Poll();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  EXPECT_FALSE(HasPolicy(id));
}

TEST_F(ContainmentTest, FaultOnUntrackedLockRecordsEventOnly) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
  ContainmentRegistry& registry = ContainmentRegistry::Global();

  registry.ReportFault(id, ContainmentFault::kFairnessViolation, "stock lock");
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kActive);
  EXPECT_FALSE(registry.StatusOf(id).has_value());
  EXPECT_TRUE(
      HasEvent(ContainmentFault::kFairnessViolation, ContainmentAction::kNone));
}

TEST_F(ContainmentTest, ManualDetachClearsContainmentState) {
  const std::uint64_t id = RegisterWithPolicy();
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  registry.ReportFault(id, ContainmentFault::kBudgetOverrun, "x");
  ASSERT_EQ(registry.HealthOf(id), PolicyHealth::kSuspect);

  ASSERT_TRUE(Concord::Global().Detach(id).ok());
  EXPECT_FALSE(registry.StatusOf(id).has_value());
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kActive);
}

TEST_F(ContainmentTest, ManualAttachSupersedesQuarantine) {
  ScopedFakeClock fake(1'000'000);
  const std::uint64_t id = RegisterWithPolicy();
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  ContainmentConfig config;
  config.quarantine_threshold = 1;
  registry.SetConfig(config);

  registry.ReportFault(id, ContainmentFault::kBudgetOverrun, "x");
  ASSERT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);

  // The controller re-attaches a (fixed) policy by hand: state resets.
  auto policy = MakePriorityBoostPolicy();
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(Concord::Global().Attach(id, std::move(policy->spec)).ok());
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kActive);
  EXPECT_EQ(registry.StatusOf(id)->quarantine_count, 0u);
  EXPECT_TRUE(HasPolicy(id));
}

std::uint64_t SlowReleaseTap(void*, void*) {
  BurnNs(100'000);
  return 0;
}

TEST_F(ContainmentTest, BudgetOverrunsTripAndQuarantine) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
  ASSERT_TRUE(concord.EnableProfiling(id).ok());
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  ContainmentConfig config;
  config.quarantine_threshold = 1;
  config.auto_reattach = false;
  registry.SetConfig(config);

  PolicySpec spec;
  spec.name = "slow-release";
  spec.AddNative(HookKind::kLockRelease, "slow", SlowReleaseTap);  // ~100us
  spec.hook_budget_ns = 10'000;  // budget: 10us
  spec.hook_budget_trip = 3;
  ASSERT_TRUE(concord.Attach(id, std::move(spec)).ok());

  for (int i = 0; i < 8; ++i) {
    lock_.Lock();
    lock_.Unlock();
  }
  const HookBudgetState* budget = concord.BudgetState(id);
  ASSERT_NE(budget, nullptr);
  EXPECT_GE(budget->overruns.load(), 3u);
  EXPECT_GE(budget->max_ns.load(), 100'000u);
  EXPECT_GE(
      budget->calls[static_cast<int>(HookKind::kLockRelease)].load(), 8u);

  const auto fresh = registry.Poll();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh[0].fault, ContainmentFault::kBudgetOverrun);
  EXPECT_EQ(fresh[0].policy_name, "slow-release");

  const ShardedLockProfileStats* stats = concord.Stats(id);
  ASSERT_NE(stats, nullptr);
  const LockProfileSnapshot snapshot = stats->Snapshot();
  EXPECT_GE(snapshot.budget_overruns, 3u);
  EXPECT_EQ(snapshot.quarantines, 1u);

  // With the hostile tap quarantined the lock is back to stock + profiling.
  lock_.Lock();
  lock_.Unlock();
}

TEST_F(ContainmentTest, FastPolicyWithinBudgetStaysActive) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");

  PolicySpec spec;
  spec.name = "fast";
  spec.AddNative(HookKind::kLockRelease, "noop",
                 [](void*, void*) { return std::uint64_t{0}; });
  spec.hook_budget_ns = 10'000'000;  // 10ms: generous
  ASSERT_TRUE(concord.Attach(id, std::move(spec)).ok());

  for (int i = 0; i < 100; ++i) {
    lock_.Lock();
    lock_.Unlock();
  }
  ContainmentRegistry::Global().Poll();
  EXPECT_EQ(ContainmentRegistry::Global().HealthOf(id), PolicyHealth::kActive);
  const HookBudgetState* budget = concord.BudgetState(id);
  ASSERT_NE(budget, nullptr);
  EXPECT_EQ(budget->overruns.load(), 0u);
}

// Budget accounting exists iff the policy sets a budget, whether or not
// fault injection is compiled in.
TEST_F(ContainmentTest, UnbudgetedPolicyHasNoBudgetState) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
  PolicySpec spec;
  spec.name = "unbudgeted";
  spec.AddNative(HookKind::kLockRelease, "noop",
                 [](void*, void*) { return std::uint64_t{0}; });
  ASSERT_TRUE(concord.Attach(id, std::move(spec)).ok());
  lock_.Lock();
  lock_.Unlock();
  EXPECT_EQ(concord.BudgetState(id), nullptr);
}

#if CONCORD_FAULT_INJECTION

TEST_F(ContainmentTest, InjectedDispatchFaultQuarantines) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  ContainmentConfig config;
  config.quarantine_threshold = 1;
  config.auto_reattach = false;
  registry.SetConfig(config);

  // The BPF profiler policy's taps hit map helpers on every lock op; an
  // always-armed map_lookup fault makes each dispatch observe a fault.
  auto policy = MakeBpfProfilerPolicy();
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());

  FaultRegistry::Global().Arm("bpf.map_lookup", {});
  lock_.Lock();
  lock_.Unlock();
  FaultRegistry::Global().DisarmAll();

  // No budget, so no budget state: the fault is the table's.
  EXPECT_EQ(concord.BudgetState(id), nullptr);

  const auto fresh = registry.Poll();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh[0].fault, ContainmentFault::kDispatchFault);
}

TEST_F(ContainmentTest, JitCompileFaultRecordsFallbackEvent) {
  if (!Jit::Enabled()) {
    GTEST_SKIP() << "JIT disabled in this configuration";
  }
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");

  FaultRegistry::Global().Arm("jit.compile", {});
  auto policy = MakeNumaGroupingPolicy();
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());
  FaultRegistry::Global().DisarmAll();

  // The policy attached fine (interpreter tier); containment recorded the
  // fallback as an informational event, health untouched.
  EXPECT_EQ(ContainmentRegistry::Global().HealthOf(id), PolicyHealth::kActive);
  EXPECT_TRUE(HasEvent(ContainmentFault::kJitCompileFallback,
                       ContainmentAction::kNone));

  // And the policy still works: exercise the lock.
  lock_.Lock();
  lock_.Unlock();
}

#endif  // CONCORD_FAULT_INJECTION

TEST_F(ContainmentTest, WorkerReattachesAfterRealBackoff) {
  const std::uint64_t id = RegisterWithPolicy();
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  ContainmentConfig config;
  config.quarantine_threshold = 1;
  config.initial_backoff_ns = 5'000'000;  // 5ms real time
  config.probation_success_ns = 5'000'000;
  registry.SetConfig(config);

  registry.ReportFault(id, ContainmentFault::kFairnessViolation, "x");
  ASSERT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);

  manual_loop_.reset();
  ControlLoop::Global().Start();
  const std::uint64_t deadline = MonotonicNowNs() + 10'000'000'000ull;
  while (registry.HealthOf(id) == PolicyHealth::kQuarantined &&
         MonotonicNowNs() < deadline) {
    timespec ts{0, 1'000'000};
    nanosleep(&ts, nullptr);
  }
  const PolicyHealth health = registry.HealthOf(id);
  EXPECT_TRUE(health == PolicyHealth::kProbation ||
              health == PolicyHealth::kActive);
  EXPECT_TRUE(HasPolicy(id));
}

}  // namespace
}  // namespace concord
