#include "src/concord/profiler.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/base/time.h"
#include "src/bpf/assembler.h"
#include "src/concord/agent/shm_segment.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/rcu/rcu.h"
#include "src/sync/bravo.h"
#include "src/sync/policy_hooks.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

// Locks live in the fixture so they outlive TearDown's unregistration —
// Concord requires Unregister before a registered lock is destroyed.
class ProfilerTest : public ::testing::Test {
 protected:
  void TearDown() override { Concord::Global().ResetForTest(); }

  ShflLock lock_;
  ShflLock lock2_;
  ShflLock lock3_;
  BravoLock<NeutralRwLock> rw_;
};

// How many of a fresh thread's first `n` acquisitions of a profiled lock
// are timed: the decisions HookSite makes for them, replayed on a thread of
// its own (every thread's sampler starts from the same seed).
std::uint64_t TimedOfFirst(int n) {
  std::uint64_t timed = 0;
  std::thread([&] {
    for (int i = 0; i < n; ++i) {
      timed += HookSite::TimeAcquisition(HookSite::kTimedTaps) ? 1 : 0;
    }
  }).join();
  return timed;
}

TEST_F(ProfilerTest, CountsUncontendedAcquisitions) {
  ShflLock& lock = lock_;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "l", "test");
  ASSERT_TRUE(concord.EnableProfiling(id).ok());
  const ShardedLockProfileStats* stats = concord.Stats(id);
  ASSERT_NE(stats, nullptr);

  // A fresh thread, so its sampler starts where TimedOfFirst's does.
  std::uint64_t after_first = 0;
  std::thread([&] {
    for (int i = 0; i < 50; ++i) {
      {
        ShflGuard guard(lock);
        BurnNs(10'000);
      }
      if (i == 0) {
        after_first = stats->HoldNs().TotalCount();
      }
    }
  }).join();

  EXPECT_EQ(stats->Acquisitions(), 50u);
  EXPECT_EQ(stats->Releases(), 50u);
  EXPECT_EQ(stats->Contentions(), 0u);
  // Only timed acquisitions feed the histogram, the first one among them.
  EXPECT_EQ(after_first, 1u);
  EXPECT_EQ(stats->HoldNs().TotalCount(), TimedOfFirst(50));
  // Hold times around 10us must be visible in the histogram.
  EXPECT_GE(stats->HoldNs().Percentile(50), 4'000u);
}

// A profiled lock times 1 acquisition in 16 per thread and counts every one;
// a policy that reads cs_ewma_ns has every acquisition timed.
TEST_F(ProfilerTest, ProfiledLockTimesOneAcquisitionInSixteen) {
  constexpr int kAcquisitions = 3200;
  ShflLock& lock = lock_;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "l", "test");
  ASSERT_TRUE(concord.EnableProfiling(id).ok());
  const ShardedLockProfileStats* stats = concord.Stats(id);
  EXPECT_EQ(stats->TimedOneIn(), HookSite::kTimedOneIn);

  std::uint64_t after_first = 0;
  std::thread([&] {
    for (int i = 0; i < kAcquisitions; ++i) {
      { ShflGuard guard(lock); }
      if (i == 0) {
        after_first = stats->HoldNs().TotalCount();
      }
    }
  }).join();
  EXPECT_EQ(stats->Acquisitions(), static_cast<std::uint64_t>(kAcquisitions));
  EXPECT_EQ(stats->Releases(), static_cast<std::uint64_t>(kAcquisitions));
  EXPECT_EQ(stats->Contentions(), 0u);
  EXPECT_EQ(after_first, 1u);  // a thread's first acquisition is timed
  const std::uint64_t samples = stats->HoldNs().TotalCount();
  EXPECT_EQ(samples, TimedOfFirst(kAcquisitions));
  // 3200 / 16 = 200 expected; gaps are uniform in [1, 31].
  EXPECT_GE(samples, 150u);
  EXPECT_LE(samples, 250u);
  EXPECT_NE(concord.ProfileReport("*").find("timed_one_in=16"),
            std::string::npos);

  PolicySpec accounting;
  accounting.name = "hold_accounting";
  auto reads_ewma = AssembleProgram("reads_ewma",
                                    "ldxdw r2, [r1+48]\nmov r0, 0\nexit\n",
                                    &DescriptorFor(HookKind::kCmpNode));
  ASSERT_TRUE(reads_ewma.ok()) << reads_ewma.status().ToString();
  ASSERT_TRUE(
      accounting.AddProgram(HookKind::kCmpNode, std::move(*reads_ewma)).ok());
  ASSERT_TRUE(concord.Attach(id, std::move(accounting)).ok());
  EXPECT_EQ(stats->TimedOneIn(), 1u);
  std::thread([&] {
    for (int i = 0; i < kAcquisitions; ++i) {
      ShflGuard guard(lock);
    }
  }).join();
  EXPECT_EQ(stats->Acquisitions(), 2u * kAcquisitions);
  EXPECT_EQ(stats->HoldNs().TotalCount(), samples + kAcquisitions);
  EXPECT_NE(concord.StatsJson("*").find("\"timed_one_in\":1"),
            std::string::npos);
}

// One thread taking two profiled locks in strict turn times both: a fixed
// period of 16 would time only the lock it took first.
TEST_F(ProfilerTest, AlternatingLocksAreBothSampled) {
  constexpr int kRounds = 1600;
  Concord& concord = Concord::Global();
  const std::uint64_t a = concord.RegisterShflLock(lock_, "a", "test");
  const std::uint64_t b = concord.RegisterShflLock(lock2_, "b", "test");
  ASSERT_TRUE(concord.EnableProfiling(a).ok());
  ASSERT_TRUE(concord.EnableProfiling(b).ok());
  std::thread([&] {
    for (int i = 0; i < kRounds; ++i) {
      { ShflGuard guard(lock_); }
      { ShflGuard guard(lock2_); }
    }
  }).join();
  for (const std::uint64_t id : {a, b}) {
    const ShardedLockProfileStats* stats = concord.Stats(id);
    EXPECT_EQ(stats->Acquisitions(), static_cast<std::uint64_t>(kRounds));
    // 1600 / 16 = 100 expected on each lock.
    EXPECT_GE(stats->HoldNs().TotalCount(), 50u) << "lock " << id;
    EXPECT_LE(stats->HoldNs().TotalCount(), 150u) << "lock " << id;
  }
  EXPECT_EQ(concord.Stats(a)->HoldNs().TotalCount() +
                concord.Stats(b)->HoldNs().TotalCount(),
            TimedOfFirst(2 * kRounds));
}

// Nested reads of a BravoLock under hold accounting: each keeps its
// acquired stamp on the thread's token stack, so each release hands its
// own acquisition's stamp to the tap (LIFO), with no table in the profiler.
TEST_F(ProfilerTest, NestedBravoReadsEachReleaseTheirOwnStamp) {
  struct Log {
    std::vector<std::uint64_t> acquired;
    std::vector<TapStamps> released;
  } log;
  HookTable table;
  table.user_data = &log;
  table.track_hold_time = true;
  table.lock_acquired = [](void* ud, std::uint64_t, const TapStamps& stamps) {
    static_cast<Log*>(ud)->acquired.push_back(stamps.acquired_ns);
  };
  table.lock_release = [](void* ud, std::uint64_t, const TapStamps& stamps) {
    static_cast<Log*>(ud)->released.push_back(stamps);
  };
  rw_.hook_site().Install(&table);
  for (int depth = 0; depth < 3; ++depth) {
    rw_.ReadLock();
    BurnNs(1'000);  // so that no two stamps are equal
  }
  for (int depth = 0; depth < 3; ++depth) {
    rw_.ReadUnlock();
  }
  rw_.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();

  ASSERT_EQ(log.acquired.size(), 3u);
  ASSERT_EQ(log.released.size(), 3u);
  for (int depth = 0; depth < 3; ++depth) {
    SCOPED_TRACE(depth);
    const TapStamps& release = log.released[2 - depth];
    EXPECT_NE(log.acquired[depth], 0u);
    EXPECT_EQ(release.acquired_ns, log.acquired[depth]);
    EXPECT_GE(release.release_ns, release.acquired_ns);
  }
  // The outer read was taken first and released last.
  EXPECT_LT(log.acquired[0], log.acquired[1]);
  EXPECT_LT(log.acquired[1], log.acquired[2]);
  EXPECT_GE(log.released[2].release_ns, log.released[0].release_ns);
}

TEST_F(ProfilerTest, RecordsContentionAndWaitTimes) {
  ShflLock& lock = lock_;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "l", "test");
  ASSERT_TRUE(concord.EnableProfiling(id).ok());

  std::atomic<bool> waiter_contended{false};
  lock.Lock();
  std::thread waiter([&] {
    lock.Lock();
    lock.Unlock();
  });
  // Wait until the profiler has seen the contention event. The Stats pointer
  // is grabbed once and polled live while the worker records into it.
  const ShardedLockProfileStats* stats = concord.Stats(id);
  const std::uint64_t deadline = MonotonicNowNs() + 10'000'000'000ull;
  while (stats->Contentions() == 0 && MonotonicNowNs() < deadline) {
    timespec ts{0, 1'000'000};
    nanosleep(&ts, nullptr);
  }
  waiter_contended.store(stats->Contentions() > 0);
  lock.Unlock();
  waiter.join();

  EXPECT_TRUE(waiter_contended.load());
  EXPECT_GE(stats->Contentions(), 1u);
  EXPECT_GE(stats->WaitNs().TotalCount(), 1u);
  EXPECT_GT(stats->WaitNs().Max(), 0u);
}

TEST_F(ProfilerTest, PerLockGranularity) {
  // The lockstat comparison: profile ONE lock out of three.
  ShflLock& hot = lock_;
  ShflLock& cold_a = lock2_;
  ShflLock& cold_b = lock3_;
  Concord& concord = Concord::Global();
  const std::uint64_t hot_id = concord.RegisterShflLock(hot, "hot", "g");
  const std::uint64_t cold_a_id = concord.RegisterShflLock(cold_a, "cold_a", "g");
  concord.RegisterShflLock(cold_b, "cold_b", "g");

  ASSERT_TRUE(concord.EnableProfiling(hot_id).ok());
  for (int i = 0; i < 20; ++i) {
    ShflGuard g1(hot);
  }
  for (int i = 0; i < 20; ++i) {
    ShflGuard g2(cold_a);
  }
  EXPECT_EQ(concord.Stats(hot_id)->Acquisitions(), 20u);
  EXPECT_EQ(concord.Stats(cold_a_id), nullptr);  // never enabled
  // Unprofiled locks carry no hook table at all (zero overhead).
  EXPECT_EQ(cold_a.hook_site().Current(), nullptr);
}

TEST_F(ProfilerTest, DisableStopsCounting) {
  ShflLock& lock = lock_;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "l", "test");
  ASSERT_TRUE(concord.EnableProfiling(id).ok());
  {
    ShflGuard guard(lock);
  }
  ASSERT_TRUE(concord.DisableProfiling(id).ok());
  const std::uint64_t before = concord.Stats(id)->Acquisitions();
  {
    ShflGuard guard(lock);
  }
  EXPECT_EQ(concord.Stats(id)->Acquisitions(), before);
}

TEST_F(ProfilerTest, ProfilesRwLocks) {
  BravoLock<NeutralRwLock>& lock = rw_;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterRwLock(lock, "rw", "test");
  ASSERT_TRUE(concord.EnableProfiling(id).ok());

  for (int i = 0; i < 10; ++i) {
    lock.ReadLock();
    lock.ReadUnlock();
  }
  lock.WriteLock();
  lock.WriteUnlock();

  const ShardedLockProfileStats* stats = concord.Stats(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->Acquisitions(), 11u);
  EXPECT_EQ(stats->Releases(), 11u);
}

TEST_F(ProfilerTest, ReportListsProfiledLocksBySelector) {
  ShflLock& a = lock_;
  ShflLock& b = lock2_;
  Concord& concord = Concord::Global();
  concord.RegisterShflLock(a, "alpha", "g1");
  concord.RegisterShflLock(b, "beta", "g2");
  ASSERT_TRUE(concord.EnableProfilingBySelector("*").ok());
  {
    ShflGuard guard(a);
  }
  const std::string all = concord.ProfileReport("*");
  EXPECT_NE(all.find("alpha"), std::string::npos);
  EXPECT_NE(all.find("beta"), std::string::npos);
  const std::string only_g1 = concord.ProfileReport("class:g1");
  EXPECT_NE(only_g1.find("alpha"), std::string::npos);
  EXPECT_EQ(only_g1.find("beta"), std::string::npos);
  EXPECT_NE(only_g1.find("acq=1"), std::string::npos);
}

TEST_F(ProfilerTest, ProfilingComposesWithPolicy) {
  // Profiling and a shuffling policy share the hook table.
  ShflLock& lock = lock_;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "l", "test");
  auto numa = MakeNumaGroupingPolicy();
  ASSERT_TRUE(numa.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(numa->spec)).ok());
  ASSERT_TRUE(concord.EnableProfiling(id).ok());
  for (int i = 0; i < 25; ++i) {
    ShflGuard guard(lock);
  }
  EXPECT_EQ(concord.Stats(id)->Acquisitions(), 25u);
  // Detaching the policy keeps profiling alive.
  ASSERT_TRUE(concord.Detach(id).ok());
  {
    ShflGuard guard(lock);
  }
  EXPECT_EQ(concord.Stats(id)->Acquisitions(), 26u);
}

// --- tap-level tests -----------------------------------------------------------
//
// These drive ProfilerTaps directly (the unit under the trampolines) with
// stamps of their own, so wait/hold samples are exact.

TEST(ProfilerTapsTest, WaitAndHoldComeFromTheStamps) {
  ShardedLockProfileStats stats;
  const std::uint64_t id = 3;

  ProfilerTaps::OnAcquire(stats, id);
  ProfilerTaps::OnContended(stats, id);
  ProfilerTaps::OnAcquired(stats, id, TapStamps{10'000, 16'000, 0, true});
  ProfilerTaps::OnRelease(stats, id, TapStamps{0, 16'000, 16'500, false});
  // An uncontended timed acquisition: a hold sample, no wait sample.
  ProfilerTaps::OnAcquire(stats, id);
  ProfilerTaps::OnAcquired(stats, id, TapStamps{0, 20'000, 0, false});
  ProfilerTaps::OnRelease(stats, id, TapStamps{0, 20'000, 21'500, false});

  EXPECT_EQ(stats.Acquisitions(), 2u);
  EXPECT_EQ(stats.Contentions(), 1u);
  EXPECT_EQ(stats.Releases(), 2u);
  const Log2Histogram wait = stats.WaitNs();
  EXPECT_EQ(wait.TotalCount(), 1u);
  EXPECT_EQ(wait.Sum(), 6'000u);
  const Log2Histogram hold = stats.HoldNs();
  EXPECT_EQ(hold.TotalCount(), 2u);
  EXPECT_EQ(hold.Sum(), 2'000u);  // 500 + 1500
  EXPECT_EQ(hold.Max(), 1'500u);
}

TEST(ProfilerTapsTest, UntimedTapsCountButRecordNoSample) {
  ShardedLockProfileStats stats;
  const std::uint64_t id = 5;
  for (const bool queued : {false, true}) {
    ProfilerTaps::OnAcquire(stats, id);
    if (queued) {
      ProfilerTaps::OnContended(stats, id);
    }
    ProfilerTaps::OnAcquired(stats, id, TapStamps{0, 0, 0, queued});
    ProfilerTaps::OnRelease(stats, id, TapStamps{});
  }
  EXPECT_EQ(stats.Acquisitions(), 2u);
  EXPECT_EQ(stats.Contentions(), 1u);
  EXPECT_EQ(stats.Releases(), 2u);
  EXPECT_EQ(stats.WaitNs().TotalCount(), 0u);
  EXPECT_EQ(stats.HoldNs().TotalCount(), 0u);
}

TEST(ProfilerTapsTest, ReleaseWithoutSlotIsCountedButNotTimed) {
  // Profiling attached mid-critical-section: the release tap fires with no
  // acquired stamp. The release must count; no bogus hold sample.
  ShardedLockProfileStats stats;
  ProfilerTaps::OnRelease(stats, 11);
  EXPECT_EQ(stats.Releases(), 1u);
  EXPECT_EQ(stats.HoldNs().TotalCount(), 0u);
}

TEST(ProfilerTapsTest, UntimedQueuedGrantCountsACrossSocketHandoff) {
  ShardedLockProfileStats stats;
  const std::uint64_t id = 13;
  const std::uint32_t here = Self().socket;
  // The previous queued grant went to another socket.
  stats.ExchangeOwnerSocket(here + 1);
  // A fast-path grant is no handoff and leaves the owner socket alone.
  ProfilerTaps::OnAcquired(stats, id, TapStamps{0, 0, 0, false});
  EXPECT_EQ(stats.CrossSocketHandoffs(), 0u);
  // An untimed queued grant still counts.
  ProfilerTaps::OnAcquired(stats, id, TapStamps{0, 0, 0, true});
  EXPECT_EQ(stats.CrossSocketHandoffs(), 1u);
  // The next queued grant on the same socket is no handoff.
  ProfilerTaps::OnAcquired(stats, id, TapStamps{0, 0, 0, true});
  EXPECT_EQ(stats.CrossSocketHandoffs(), 1u);
  EXPECT_EQ(stats.ExchangeOwnerSocket(here), here);
  EXPECT_EQ(stats.WaitNs().TotalCount(), 0u);
}

TEST(ShardedStatsTest, CountersAggregateAcrossShards) {
  ShardedLockProfileStats stats;
  // Write to two distinct shards directly (ControlShard is shard 0; pick a
  // second one through MergeFrom of a standalone block).
  stats.ControlShard().acquisitions.fetch_add(3);
  stats.ControlShard().quarantines.fetch_add(1);
  LockProfileStats extra;
  extra.acquisitions.fetch_add(4);
  extra.wait_ns.Record(1'000);
  stats.ControlShard().MergeFrom(extra);

  EXPECT_EQ(stats.Acquisitions(), 7u);
  EXPECT_EQ(stats.Quarantines(), 1u);
  EXPECT_EQ(stats.WaitNs().TotalCount(), 1u);

  LockProfileStats merged;
  stats.MergeInto(merged);
  EXPECT_EQ(merged.acquisitions.load(), 7u);
  EXPECT_EQ(merged.wait_ns.TotalCount(), 1u);

  stats.Reset();
  EXPECT_EQ(stats.Acquisitions(), 0u);
  EXPECT_EQ(stats.WaitNs().TotalCount(), 0u);
}

TEST(ShardedStatsTest, ConcurrentWritersLandOnTheirOwnShards) {
  ShardedLockProfileStats stats;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&stats] {
      for (int i = 0; i < kPerThread; ++i) {
        stats.Shard().acquisitions.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(stats.Acquisitions(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(SnapshotTest, SnapshotMergesShardsAndStampsClock) {
  ScopedFakeClock clock(/*start_ns=*/1'000);
  ShardedLockProfileStats stats;
  stats.ControlShard().acquisitions.fetch_add(10);
  stats.ControlShard().contentions.fetch_add(4);
  stats.ControlShard().socket_acquisitions[1].fetch_add(10);
  stats.ControlShard().cross_socket_handoffs.fetch_add(2);
  stats.ControlShard().wait_ns.Record(5'000);

  const LockProfileSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.taken_at_ns, 1'000u);
  EXPECT_EQ(snapshot.window_start_ns, 0u);  // cumulative, no window
  EXPECT_EQ(snapshot.acquisitions, 10u);
  EXPECT_EQ(snapshot.contentions, 4u);
  EXPECT_EQ(snapshot.socket_acquisitions[1], 10u);
  EXPECT_EQ(snapshot.cross_socket_handoffs, 2u);
  EXPECT_EQ(snapshot.wait_ns.TotalCount(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.ContentionRate(), 0.4);
  EXPECT_DOUBLE_EQ(snapshot.AcquisitionsPerSec(), 0.0);  // cumulative
}

TEST(SnapshotTest, DeltaSinceIsolatesTheWindow) {
  ScopedFakeClock clock(/*start_ns=*/1'000);
  ShardedLockProfileStats stats;
  stats.ControlShard().acquisitions.fetch_add(100);
  stats.ControlShard().contentions.fetch_add(10);
  stats.ControlShard().wait_ns.Record(1'000);
  const LockProfileSnapshot before = stats.Snapshot();

  clock.clock().AdvanceMs(500);
  stats.ControlShard().acquisitions.fetch_add(50);
  stats.ControlShard().contentions.fetch_add(40);
  stats.ControlShard().cross_socket_handoffs.fetch_add(8);
  stats.ControlShard().wait_ns.Record(64'000);
  const LockProfileSnapshot after = stats.Snapshot();

  const LockProfileSnapshot window = after.DeltaSince(before);
  // Window boundaries come from the two snapshots' timestamps.
  EXPECT_EQ(window.window_start_ns, before.taken_at_ns);
  EXPECT_EQ(window.taken_at_ns, after.taken_at_ns);
  // Only the second burst remains.
  EXPECT_EQ(window.acquisitions, 50u);
  EXPECT_EQ(window.contentions, 40u);
  EXPECT_EQ(window.cross_socket_handoffs, 8u);
  EXPECT_EQ(window.wait_ns.TotalCount(), 1u);
  EXPECT_DOUBLE_EQ(window.ContentionRate(), 0.8);
  // 50 acquisitions over the 500ms window.
  EXPECT_DOUBLE_EQ(window.AcquisitionsPerSec(), 100.0);
}

TEST(SnapshotTest, DeltaClampsWhenCountersReset) {
  ShardedLockProfileStats stats;
  stats.ControlShard().acquisitions.fetch_add(100);
  const LockProfileSnapshot before = stats.Snapshot();
  stats.Reset();
  stats.ControlShard().acquisitions.fetch_add(5);
  const LockProfileSnapshot after = stats.Snapshot();
  // A reset between snapshots must not produce underflowed garbage.
  EXPECT_EQ(after.DeltaSince(before).acquisitions, 0u);
}

TEST(SnapshotTest, ActiveSocketsIgnoresTraceTraffic) {
  ShardedLockProfileStats stats;
  stats.ControlShard().acquisitions.fetch_add(100);
  stats.ControlShard().socket_acquisitions[0].fetch_add(60);
  stats.ControlShard().socket_acquisitions[1].fetch_add(35);
  stats.ControlShard().socket_acquisitions[2].fetch_add(5);  // below 10%
  const LockProfileSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.ActiveSockets(), 2u);
  EXPECT_EQ(snapshot.ActiveSockets(/*min_share=*/0.01), 3u);
}

// Regression for the cross-shard field-skew bug: Snapshot() used to read
// each field with an independent pass over the shards, so a snapshot taken
// while writers were mid-operation could observe contentions > acquisitions
// (a contention counted on shard A after the acquisitions pass had moved
// on), which inflated ContentionRate() past 1.0 and poisoned regime
// classification. Snapshot() now merges once and clamps the cross-field
// invariants; this test hammers it from concurrent writers (and under TSan
// doubles as the race-freedom proof), then round-trips the same snapshots
// through the shared-memory export to cover the multi-process path.
TEST(SnapshotTest, ConcurrentSnapshotsHoldCrossFieldInvariants) {
  ShardedLockProfileStats stats;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stats, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        LockProfileStats& shard = stats.Shard();
        // Every op is an acquisition+contention+release triple, recorded in
        // the order the real taps record them — so any skew the snapshot
        // pass can introduce is the bug's exact shape.
        shard.acquisitions.fetch_add(1, std::memory_order_relaxed);
        shard.contentions.fetch_add(1, std::memory_order_relaxed);
        shard.wait_ns.Record(1'000);
        shard.releases.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const std::string shm_path = ::testing::TempDir() + "profiler_skew_" +
                               std::to_string(getpid()) + ".shm";
  std::remove(shm_path.c_str());
  auto writer = ShmSegmentWriter::Create(shm_path, /*capacity=*/2);
  ASSERT_TRUE(writer.ok());
  auto reader = ShmSegmentReader::Map(shm_path);
  ASSERT_TRUE(reader.ok());

  LockProfileSnapshot prev;
  bool have_prev = false;
  for (int i = 0; i < 2'000; ++i) {
    const LockProfileSnapshot snap = stats.Snapshot();
    ASSERT_LE(snap.contentions, snap.acquisitions);
    ASSERT_LE(snap.releases, snap.acquisitions);
    ASSERT_LE(snap.ContentionRate(), 1.0);
    if (have_prev) {
      // Each counter is monotonic across snapshots, and a delta window
      // attributes in-flight ops to exactly one side — never negative.
      ASSERT_GE(snap.acquisitions, prev.acquisitions);
      ASSERT_GE(snap.contentions, prev.contentions);
      ASSERT_GE(snap.releases, prev.releases);
      // The documented residual: an in-flight op may land its acquisition
      // in one window and its contention in the next, so the *window*
      // cross-field invariant is only "never negative, never double
      // counted" — not contentions <= acquisitions.
      const LockProfileSnapshot delta = snap.DeltaSince(prev);
      ASSERT_EQ(delta.acquisitions, snap.acquisitions - prev.acquisitions);
      ASSERT_EQ(delta.contentions, snap.contentions - prev.contentions);
    }
    prev = snap;
    have_prev = true;

    // Every 64th snapshot rides through the shm segment, the same way the
    // worker exporter publishes it, and must come back invariant-clean.
    if (i % 64 == 0) {
      ShmLockSample sample;
      sample.lock_id = 1;
      sample.name = "skew";
      sample.snapshot = snap;
      ASSERT_TRUE(
          (*writer)->Publish({sample}, static_cast<std::uint64_t>(i + 1)).ok());
      auto read_back = (*reader)->Read();
      ASSERT_TRUE(read_back.ok()) << read_back.status().ToString();
      ASSERT_EQ(read_back->locks.size(), 1u);
      const LockProfileSnapshot& exported = read_back->locks[0].snapshot;
      ASSERT_EQ(exported.acquisitions, snap.acquisitions);
      ASSERT_EQ(exported.contentions, snap.contentions);
      ASSERT_LE(exported.contentions, exported.acquisitions);
    }
  }

  stop.store(true);
  for (std::thread& writer_thread : writers) {
    writer_thread.join();
  }
  std::remove(shm_path.c_str());
}

}  // namespace
}  // namespace concord
