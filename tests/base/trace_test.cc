#include "src/base/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/base/time.h"

namespace concord {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { TraceRegistry::Global().ResetForTest(); }
  void TearDown() override { TraceRegistry::Global().ResetForTest(); }
};

TEST_F(TraceTest, DisabledByDefault) {
  EXPECT_FALSE(TraceEnabled(1));
  TraceRecord(1, TraceEventKind::kAcquire);
  EXPECT_TRUE(TraceRegistry::Global().Collect().empty());
}

TEST_F(TraceTest, PerLockEnableGates) {
  TraceRegistry& registry = TraceRegistry::Global();
  registry.EnableLock(2);
  EXPECT_TRUE(TraceEnabled(2));
  EXPECT_FALSE(TraceEnabled(3));

  TraceRecord(2, TraceEventKind::kAcquire);
  TraceRecord(3, TraceEventKind::kAcquire);  // not enabled: dropped
  const auto events = registry.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].lock_id, 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kAcquire);

  registry.DisableLock(2);
  EXPECT_FALSE(TraceEnabled(2));
}

TEST_F(TraceTest, LockIdZeroAndOutOfRangeNeverTrace) {
  TraceRegistry& registry = TraceRegistry::Global();
  registry.EnableLock(0);
  registry.EnableLock(trace_internal::kMaxTraceLocks + 5);
  EXPECT_FALSE(TraceEnabled(0));
  EXPECT_FALSE(TraceEnabled(trace_internal::kMaxTraceLocks + 5));
}

TEST_F(TraceTest, RecordsTimestampedEventsInOrder) {
  ScopedFakeClock fake(100);
  TraceRegistry& registry = TraceRegistry::Global();
  registry.EnableLock(5);

  TraceRecord(5, TraceEventKind::kAcquire);
  fake.clock().AdvanceNs(50);
  TraceRecord(5, TraceEventKind::kContended);
  fake.clock().AdvanceNs(50);
  TraceRecord(5, TraceEventKind::kAcquired);
  fake.clock().AdvanceNs(25);
  TraceRecord(5, TraceEventKind::kRelease);

  const auto events = registry.Collect();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].ts_ns, 100u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kAcquire);
  EXPECT_EQ(events[1].kind, TraceEventKind::kContended);
  EXPECT_EQ(events[2].kind, TraceEventKind::kAcquired);
  EXPECT_EQ(events[3].ts_ns, 225u);
  EXPECT_EQ(events[3].kind, TraceEventKind::kRelease);
}

TEST_F(TraceTest, ArgCarriesPayload) {
  TraceRegistry& registry = TraceRegistry::Global();
  registry.EnableLock(6);
  TraceRecord(6, TraceEventKind::kShuffleRound, 3);
  TraceRecord(6, TraceEventKind::kPark, 129);
  const auto events = registry.Collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].arg, 3u);
  EXPECT_EQ(events[1].arg, 129u);
}

TEST_F(TraceTest, RingOverwritesOldestWhenFull) {
  TraceRegistry& registry = TraceRegistry::Global();
  registry.EnableLock(7);
  const std::size_t total = TraceRing::kCapacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    TraceRecord(7, TraceEventKind::kAcquire, i);
  }
  const auto events = registry.Collect();
  // This thread's ring holds exactly kCapacity events: the newest ones.
  std::size_t mine = 0;
  std::uint64_t min_arg = ~0ull;
  std::uint64_t max_arg = 0;
  for (const TraceEvent& event : events) {
    if (event.lock_id == 7) {
      ++mine;
      min_arg = std::min(min_arg, event.arg);
      max_arg = std::max(max_arg, event.arg);
    }
  }
  EXPECT_EQ(mine, TraceRing::kCapacity);
  EXPECT_EQ(max_arg, total - 1);
  EXPECT_EQ(min_arg, total - TraceRing::kCapacity);
}

TEST_F(TraceTest, PerThreadRingsMergeWithDistinctTids) {
  TraceRegistry& registry = TraceRegistry::Global();
  registry.EnableLock(8);
  TraceRecord(8, TraceEventKind::kAcquire);
  std::thread other([] { TraceRecord(8, TraceEventKind::kRelease); });
  other.join();
  const auto events = registry.Collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, ClearEventsKeepsEnableBits) {
  TraceRegistry& registry = TraceRegistry::Global();
  registry.EnableLock(9);
  TraceRecord(9, TraceEventKind::kAcquire);
  registry.ClearEvents();
  EXPECT_TRUE(registry.Collect().empty());
  EXPECT_TRUE(TraceEnabled(9));
}

TEST_F(TraceTest, ConcurrentRecordAndCollectIsSafe) {
  // Snapshots race live writers by design; they must never crash or return
  // garbage kinds, and every collected event must be well-formed.
  TraceRegistry& registry = TraceRegistry::Global();
  registry.EnableLock(10);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      TraceRecord(10, TraceEventKind::kAcquire, i++);
      TraceRecord(10, TraceEventKind::kRelease, i++);
    }
  });
  while (registry.Collect().empty()) {
    std::this_thread::yield();  // wait for the writer's first event
  }
  for (int i = 0; i < 200; ++i) {
    const auto events = registry.Collect();
    for (const TraceEvent& event : events) {
      EXPECT_EQ(event.lock_id, 10u);
      EXPECT_LE(static_cast<int>(event.kind), kNumTraceEventKinds);
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_FALSE(registry.Collect().empty());
}

TEST_F(TraceTest, EventKindNamesAreStable) {
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kAcquire), "acquire");
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kQuarantine), "quarantine");
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kPolicyDispatch),
               "policy_dispatch");
}

}  // namespace
}  // namespace concord
