// Chaos/soak harness: hostile policies and injected faults under real
// contention. The containment pipeline (src/concord/containment.h) must
// quarantine the offender, the lock must keep making progress (zero lost
// wakeups), and the offending hook must never run again once it is off the
// lock. Assertions count events rather than time them, so they hold under
// any load; the throughput bounds live in bench/a10_containment.

#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/base/fault.h"
#include "src/base/time.h"
#include "src/concord/concord.h"
#include "src/concord/containment.h"
#include "src/concord/control_loop.h"
#include "src/concord/policies.h"
#include "src/concord/safety.h"
#include "src/rcu/rcu.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Concord::Global().ResetForTest();
#if CONCORD_FAULT_INJECTION
    FaultRegistry::Global().DisarmAll();
#endif
  }

  // Containment is polled by hand here, budgeted attaches included.
  ScopedManualControlLoop manual_loop_;
  ShflLock lock_;
};

void SleepMs(std::uint64_t ms) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1'000'000);
  nanosleep(&ts, nullptr);
}

// Sleeps until pred or ~10s.
template <typename Pred>
bool Await(Pred pred) {
  const std::uint64_t deadline = MonotonicNowNs() + 10'000'000'000ull;
  while (!pred()) {
    if (MonotonicNowNs() > deadline) {
      return false;
    }
    SleepMs(1);
  }
  return true;
}

// A spec named `name` holding one precompiled program at `kind`.
PolicySpec NativeSpec(const char* name, HookKind kind, Program::NativeFn fn,
                      void* data = nullptr) {
  PolicySpec spec;
  spec.name = name;
  spec.AddNative(kind, name, fn, data);
  return spec;
}

// Hostile profiling tap: ~150us burned inside every lock release, inflating
// the critical section two orders of magnitude past its budget. Counts its
// invocations in the counter `calls` points to.
std::uint64_t HostileSlowReleaseTap(void* calls, void*) {
  static_cast<std::atomic<std::uint64_t>*>(calls)->fetch_add(
      1, std::memory_order_relaxed);
  BurnNs(150'000);
  return 0;
}

TEST_F(ChaosTest, SlowReleaseTapQuarantinedAndNeverFiresAgain) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "chaos", "t");
  ASSERT_TRUE(concord.EnableProfiling(id).ok());
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  ContainmentConfig config;
  config.quarantine_threshold = 1;
  config.auto_reattach = false;  // keep the hostile policy off once contained
  registry.SetConfig(config);

  constexpr int kThreads = 4;
  std::atomic<std::uint64_t> tap_calls{0};
  PolicySpec spec = NativeSpec("hostile-slow-release", HookKind::kLockRelease,
                               HostileSlowReleaseTap, &tap_calls);
  spec.hook_budget_ns = 20'000;  // 20us budget vs ~150us actual
  spec.hook_budget_trip = 8;
  ASSERT_TRUE(concord.Attach(id, std::move(spec)).ok());

  // Hammer under the hostile tap until containment quarantines it.
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        lock_.Lock();
        lock_.Unlock();
      }
    });
  }
  const bool quarantined = Await([&] {
    registry.Poll();
    return registry.HealthOf(id) == PolicyHealth::kQuarantined;
  });
  // Quarantine swapped the tap's table out. After one more grace period no
  // release can still be inside the tap, so its count is final while the
  // workers go on through the profiling-only table.
  constexpr std::uint64_t kAcquisitionsAfterQuarantine = 20'000;
  std::uint64_t calls_after_grace = 0;
  bool progressed = false;
  if (quarantined) {
    Rcu::Global().Synchronize();
    calls_after_grace = tap_calls.load();
    const std::uint64_t base = lock_.acquisitions();
    progressed = Await([&] {
      return lock_.acquisitions() >= base + kAcquisitionsAfterQuarantine;
    });
  }
  stop.store(true);
  for (std::thread& worker : workers) {
    worker.join();
  }
  ASSERT_TRUE(quarantined);
  EXPECT_TRUE(progressed);
  EXPECT_GT(calls_after_grace, 0u);
  const std::uint64_t calls_at_end = tap_calls.load();
  EXPECT_EQ(calls_at_end, calls_after_grace)
      << "the quarantined tap still ran on "
      << calls_at_end - calls_after_grace << " releases";

  const ShardedLockProfileStats* stats = concord.Stats(id);
  ASSERT_NE(stats, nullptr);
  const LockProfileSnapshot snapshot = stats->Snapshot();
  EXPECT_GE(snapshot.budget_overruns, 8u);
  EXPECT_GE(snapshot.quarantines, 1u);
}

// Hostile parking decision: burns time on every consult and never lets a
// waiter park, defeating the blocking lock's whole point.
std::uint64_t HostileNeverPark(void*, void*) {
  BurnNs(30'000);
  return 0;
}

TEST_F(ChaosTest, NeverParkScheduleWaiterContainedWithZeroLostWakeups) {
  Concord& concord = Concord::Global();
  lock_.SetBlocking(true);
  const std::uint64_t id = concord.RegisterShflLock(lock_, "chaos", "t");
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  ContainmentConfig config;
  config.quarantine_threshold = 1;
  config.auto_reattach = false;
  registry.SetConfig(config);

  PolicySpec spec = NativeSpec("hostile-never-park", HookKind::kScheduleWaiter,
                               HostileNeverPark);
  spec.hook_budget_ns = 5'000;
  spec.hook_budget_trip = 4;
  ASSERT_TRUE(concord.Attach(id, std::move(spec)).ok());

  // Hammer with ~10us critical sections (so the queue stays populated and
  // waiters consult schedule_waiter) until containment pulls the hook. Every
  // join below doubles as the zero-lost-wakeups assertion — a waiter left
  // parked forever would hang the join and trip the Await deadline first.
  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        lock_.Lock();
        BurnNs(10'000);
        lock_.Unlock();
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const bool quarantined = Await([&] {
    registry.Poll();
    return registry.HealthOf(id) == PolicyHealth::kQuarantined;
  });
  stop.store(true);
  for (std::thread& worker : workers) {
    worker.join();
  }
  ASSERT_TRUE(quarantined);
  EXPECT_GT(completed.load(), 0u);  // progress through the hostile hook
  // The blocking regime still works after containment: park/unpark cycles
  // complete with the stock spin-then-park decision.
  for (int i = 0; i < 100; ++i) {
    ShflGuard guard(lock_);
  }
}

// Hostile (in intent) grouping decision: boosts only a task class nobody
// runs with, so the policy never helps anyone — and under the manufactured
// starvation below, the watchdog quarantines it via containment.
std::uint64_t StarvingCmpNode(void*, void* ctx) {
  return static_cast<const CmpNodeCtx*>(ctx)->curr.task_class == 1;
}

TEST_F(ChaosTest, StarvingCmpNodeQuarantinedByWatchdogWithBackoff) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "chaos", "t");
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  ContainmentConfig config;
  config.quarantine_threshold = 1;
  config.initial_backoff_ns = 50'000'000;  // 50ms, real clock
  config.probation_success_ns = 50'000'000;
  registry.SetConfig(config);

  ASSERT_TRUE(concord
                  .Attach(id, NativeSpec("starving-cmp-node",
                                         HookKind::kCmpNode, StarvingCmpNode))
                  .ok());

  WatchdogConfig wconfig;
  wconfig.max_wait_ns = 10'000'000;  // 10ms is starvation-grade here
  wconfig.auto_detach = true;
  FairnessWatchdog watchdog(wconfig);
  ASSERT_TRUE(watchdog.Watch(id).ok());

  // Manufacture a starved waiter deterministically: hold the lock for 30ms
  // while one victim waits.
  std::atomic<bool> acquired{false};
  lock_.Lock();
  std::thread victim([&] {
    lock_.Lock();
    acquired.store(true);
    lock_.Unlock();
  });
  const ShardedLockProfileStats* stats = concord.Stats(id);
  ASSERT_TRUE(Await([&] { return stats->Contentions() >= 1; }));
  SleepMs(30);
  lock_.Unlock();
  victim.join();
  ASSERT_TRUE(acquired.load());

  ASSERT_FALSE(watchdog.CheckOnce().empty());
  ASSERT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  bool saw_violation = false;
  for (const ContainmentEvent& event : registry.events()) {
    if (event.lock_id == id &&
        event.fault == ContainmentFault::kFairnessViolation &&
        event.action == ContainmentAction::kQuarantined) {
      saw_violation = true;
    }
  }
  EXPECT_TRUE(saw_violation);

  // Backoff discipline on the real clock: no re-attach before the 50ms
  // backoff elapses, probation after it.
  registry.Poll();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  EXPECT_TRUE(Await([&] {
    registry.Poll();
    return registry.HealthOf(id) != PolicyHealth::kQuarantined;
  }));
  const PolicyHealth after = registry.HealthOf(id);
  EXPECT_TRUE(after == PolicyHealth::kProbation || after == PolicyHealth::kActive);
  // The policy really is back on the lock.
  bool has_policy = false;
  for (const auto& info : concord.ListLocks()) {
    if (info.lock_id == id) {
      has_policy = info.has_policy;
    }
  }
  EXPECT_TRUE(has_policy);
}

#if CONCORD_FAULT_INJECTION

// Benign parking policy that parks every waiter on first consult — makes
// park/unpark traffic deterministic regardless of core count (organic
// spin-then-park escalation is timing-dependent on a single-core host).
std::uint64_t AlwaysPark(void*, void*) { return 1; }

TEST_F(ChaosTest, DelayedWakeupFaultDelaysButNeverLosesWakeups) {
  Concord& concord = Concord::Global();
  lock_.SetBlocking(true);
  const std::uint64_t id = concord.RegisterShflLock(lock_, "chaos", "t");
  ASSERT_TRUE(concord
                  .Attach(id, NativeSpec("always-park",
                                         HookKind::kScheduleWaiter, AlwaysPark))
                  .ok());

  // Every unpark stalls 2ms before delivering: wakeups arrive late, but
  // they must all arrive.
  ASSERT_TRUE(
      FaultRegistry::Global().ArmFromDirective("park.delayed_wake=always@2000000"));

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 25;
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        lock_.Lock();
        // Sleep while holding the lock: on a single-core host this is the
        // only reliable way to force other threads to arrive, queue, and
        // park while the lock is held.
        timespec hold{0, 300'000};
        nanosleep(&hold, nullptr);
        completed.fetch_add(1, std::memory_order_relaxed);
        lock_.Unlock();
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(completed.load(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_GT(lock_.parks(), 0u);
  EXPECT_GT(FaultRegistry::Global().Fires("park.delayed_wake"), 0u);
  FaultRegistry::Global().DisarmAll();
}

TEST_F(ChaosTest, HelperFaultStormUnderContentionIsContained) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "chaos", "t");
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  ContainmentConfig config;
  config.quarantine_threshold = 2;  // SUSPECT first, then quarantine
  config.auto_reattach = false;
  registry.SetConfig(config);

  // A real BPF policy whose taps hit map helpers on every lock op, with a
  // 1-in-4 seeded map-lookup fault storm underneath it.
  auto policy = MakeBpfProfilerPolicy();
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());
  ASSERT_TRUE(FaultRegistry::Global().ArmFromDirective("bpf.map_lookup=1in4:7"));

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        lock_.Lock();
        lock_.Unlock();
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  FaultRegistry::Global().DisarmAll();

  // Every op completed despite the storm, and the harvested dispatch faults
  // moved the policy off kActive (one trip harvest = one fault = SUSPECT
  // with the default-style threshold of 2; a continuing storm would finish
  // the job on the next harvest).
  registry.Poll();
  EXPECT_NE(registry.HealthOf(id), PolicyHealth::kActive);
}

#endif  // CONCORD_FAULT_INJECTION

}  // namespace
}  // namespace concord
