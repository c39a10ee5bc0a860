#include "src/concord/safety.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>

#include "src/base/time.h"
#include "src/concord/containment.h"
#include "src/concord/control_loop.h"
#include "src/concord/policies.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

class SafetyTest : public ::testing::Test {
 protected:
  void TearDown() override { Concord::Global().ResetForTest(); }

  // These tests CheckOnce() by hand; the one that drives the real loop
  // resets it.
  std::optional<ScopedManualControlLoop> manual_loop_{std::in_place};
  ShflLock lock_;
};

// Sleeps until pred or ~10s.
template <typename Pred>
bool Await(Pred pred) {
  const std::uint64_t deadline = MonotonicNowNs() + 10'000'000'000ull;
  while (!pred()) {
    if (MonotonicNowNs() > deadline) {
      return false;
    }
    timespec ts{0, 1'000'000};
    nanosleep(&ts, nullptr);
  }
  return true;
}

TEST_F(SafetyTest, WatchEnablesProfiling) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
  FairnessWatchdog watchdog;
  ASSERT_TRUE(watchdog.Watch(id).ok());
  EXPECT_NE(concord.Stats(id), nullptr);
}

TEST_F(SafetyTest, WatchUnknownLockFails) {
  FairnessWatchdog watchdog;
  EXPECT_EQ(watchdog.Watch(9999).code(), StatusCode::kNotFound);
}

TEST_F(SafetyTest, NoViolationUnderNormalOperation) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
  FairnessWatchdog watchdog;
  ASSERT_TRUE(watchdog.Watch(id).ok());
  for (int i = 0; i < 100; ++i) {
    ShflGuard guard(lock_);
  }
  EXPECT_TRUE(watchdog.CheckOnce().empty());
  EXPECT_TRUE(watchdog.violations().empty());
}

TEST_F(SafetyTest, DetectsStarvationGradeWaitAndDetaches) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");

  // Attach some policy so there is something to auto-detach.
  auto policy = MakeNumaGroupingPolicy();
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());

  WatchdogConfig config;
  config.max_wait_ns = 10'000'000;  // 10ms counts as starvation for the test
  config.auto_detach = true;
  FairnessWatchdog watchdog(config);
  ASSERT_TRUE(watchdog.Watch(id).ok());

  // Manufacture a starved waiter: hold the lock for 30ms while one thread
  // waits; its completed acquisition lands in the wait histogram.
  std::atomic<bool> acquired{false};
  lock_.Lock();
  std::thread victim([&] {
    lock_.Lock();
    acquired.store(true);
    lock_.Unlock();
  });
  const ShardedLockProfileStats* stats = concord.Stats(id);
  ASSERT_TRUE(Await([&] { return stats->Contentions() >= 1; }));
  timespec ts{0, 30'000'000};
  nanosleep(&ts, nullptr);
  lock_.Unlock();
  victim.join();
  ASSERT_TRUE(acquired.load());

  const auto fresh = watchdog.CheckOnce();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].lock_id, id);
  EXPECT_EQ(fresh[0].kind, FairnessWatchdog::ViolationKind::kMaxWaitExceeded);
  EXPECT_GE(fresh[0].observed_ns, 10'000'000u);
  EXPECT_TRUE(fresh[0].detached);

  // The policy was detached; profiling hooks remain (stats still collected).
  EXPECT_EQ(watchdog.violations().size(), 1u);
  // A second check without new starvation does not re-flag the same max.
  EXPECT_TRUE(watchdog.CheckOnce().empty());
}

TEST_F(SafetyTest, BackgroundPollerCatchesViolations) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
  WatchdogConfig config;
  config.max_wait_ns = 5'000'000;
  config.auto_detach = false;
  FairnessWatchdog watchdog(config);
  ASSERT_TRUE(watchdog.Watch(id).ok());
  manual_loop_.reset();
  watchdog.Start();

  std::atomic<bool> acquired{false};
  lock_.Lock();
  std::thread victim([&] {
    lock_.Lock();
    acquired.store(true);
    lock_.Unlock();
  });
  const ShardedLockProfileStats* stats = concord.Stats(id);
  ASSERT_TRUE(Await([&] { return stats->Contentions() >= 1; }));
  timespec ts{0, 20'000'000};
  nanosleep(&ts, nullptr);
  lock_.Unlock();
  victim.join();
  ASSERT_TRUE(acquired.load());

  EXPECT_TRUE(Await([&] { return !watchdog.violations().empty(); }));
  watchdog.Stop();
  ASSERT_FALSE(watchdog.violations().empty());
  EXPECT_FALSE(watchdog.violations()[0].detached);
}

// Each new worst wait is a violation; the log keeps the newest 256.
TEST_F(SafetyTest, ViolationLogKeepsTheNewest256) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
  WatchdogConfig config;
  config.max_wait_ns = 1'000;
  config.auto_detach = false;
  FairnessWatchdog watchdog(config);
  ASSERT_TRUE(watchdog.Watch(id).ok());
  for (std::uint64_t i = 1; i <= 300; ++i) {
    concord.MutableStats(id)->ControlShard().wait_ns.Record(1'000 + i);
    ASSERT_EQ(watchdog.CheckOnce().size(), 1u);
  }
  const auto violations = watchdog.violations();
  ASSERT_EQ(violations.size(), 256u);
  EXPECT_EQ(violations.front().observed_ns, 1'000u + 45);
  EXPECT_EQ(violations.back().observed_ns, 1'000u + 300);
}

TEST_F(SafetyTest, DetectsWaitSkewFromP99OverP50) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
  WatchdogConfig config;
  config.max_wait_ns = ~0ull;  // keep the max-wait detector out of the way
  config.p99_over_p50_limit = 4.0;
  config.auto_detach = false;
  FairnessWatchdog watchdog(config);
  ASSERT_TRUE(watchdog.Watch(id).ok());

  // Feed a bimodal wait distribution directly: ~98% short waits and a few
  // starved outliers — the shape a starving cmp_node policy produces. p50
  // lands in the 512ns bucket, p99 in the 524us bucket: skew ~1000x.
  ShardedLockProfileStats* stats = concord.MutableStats(id);
  ASSERT_NE(stats, nullptr);
  for (int i = 0; i < 120; ++i) {
    stats->ControlShard().wait_ns.Record(1'000);
  }
  stats->ControlShard().wait_ns.Record(1'000'000);
  stats->ControlShard().wait_ns.Record(1'000'000);

  const auto fresh = watchdog.CheckOnce();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].kind, FairnessWatchdog::ViolationKind::kWaitSkew);
  EXPECT_GE(fresh[0].observed_ns, 100'000u);
  // The same skew is not re-flagged on the next pass.
  EXPECT_TRUE(watchdog.CheckOnce().empty());
}

TEST_F(SafetyTest, NoSkewFlagBelowSampleFloor) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
  WatchdogConfig config;
  config.max_wait_ns = ~0ull;
  config.p99_over_p50_limit = 4.0;
  FairnessWatchdog watchdog(config);
  ASSERT_TRUE(watchdog.Watch(id).ok());

  // Same skewed shape but under 100 samples: too little signal to act on.
  ShardedLockProfileStats* stats = concord.MutableStats(id);
  ASSERT_NE(stats, nullptr);
  for (int i = 0; i < 50; ++i) {
    stats->ControlShard().wait_ns.Record(1'000);
  }
  stats->ControlShard().wait_ns.Record(1'000'000);
  EXPECT_TRUE(watchdog.CheckOnce().empty());
}

TEST_F(SafetyTest, ViolationFeedsContainmentQuarantine) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
  auto policy = MakeNumaGroupingPolicy();
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());

  WatchdogConfig config;
  config.max_wait_ns = 10'000'000;
  config.auto_detach = true;
  FairnessWatchdog watchdog(config);
  ASSERT_TRUE(watchdog.Watch(id).ok());

  std::atomic<bool> acquired{false};
  lock_.Lock();
  std::thread victim([&] {
    lock_.Lock();
    acquired.store(true);
    lock_.Unlock();
  });
  const ShardedLockProfileStats* stats = concord.Stats(id);
  ASSERT_TRUE(Await([&] { return stats->Contentions() >= 1; }));
  timespec ts{0, 30'000'000};
  nanosleep(&ts, nullptr);
  lock_.Unlock();
  victim.join();
  ASSERT_TRUE(acquired.load());

  ASSERT_EQ(watchdog.CheckOnce().size(), 1u);

  // auto_detach + containment = straight to quarantine: the hook table is
  // gone but the spec is parked under its name for probation re-attach.
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  EXPECT_EQ(registry.HealthOf(id), PolicyHealth::kQuarantined);
  EXPECT_EQ(concord.AttachedPolicyName(id), "numa_grouping");
  bool saw_quarantine = false;
  for (const ContainmentEvent& event : registry.events()) {
    if (event.lock_id == id &&
        event.fault == ContainmentFault::kFairnessViolation &&
        event.action == ContainmentAction::kQuarantined) {
      saw_quarantine = true;
    }
  }
  EXPECT_TRUE(saw_quarantine);
  EXPECT_GE(stats->Snapshot().quarantines, 1u);
}

TEST_F(SafetyTest, UnwatchStopsDetection) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "t");
  WatchdogConfig config;
  config.max_wait_ns = 1;  // everything is a violation
  FairnessWatchdog watchdog(config);
  ASSERT_TRUE(watchdog.Watch(id).ok());
  watchdog.Unwatch(id);

  std::atomic<bool> acquired{false};
  lock_.Lock();
  std::thread victim([&] {
    lock_.Lock();
    acquired.store(true);
    lock_.Unlock();
  });
  const ShardedLockProfileStats* stats = concord.Stats(id);
  ASSERT_TRUE(Await([&] { return stats->Contentions() >= 1; }));
  lock_.Unlock();
  victim.join();
  EXPECT_TRUE(watchdog.CheckOnce().empty());
}

}  // namespace
}  // namespace concord
