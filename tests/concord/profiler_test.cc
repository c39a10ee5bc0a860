#include "src/concord/profiler.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/base/json.h"
#include "src/base/spinwait.h"
#include "src/base/time.h"
#include "src/bpf/assembler.h"
#include "src/concord/agent/shm_segment.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/rcu/rcu.h"
#include "src/sync/bravo.h"
#include "src/sync/policy_hooks.h"
#include "src/sync/shfllock.h"
#include "src/topology/thread_context.h"

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
        after_first = stats->Snapshot().hold_ns.TotalCount();
      }
    }
  }).join();

  EXPECT_EQ(stats->Acquisitions(), 50u);
  EXPECT_EQ(stats->Releases(), 50u);
  EXPECT_EQ(stats->Contentions(), 0u);
  // Only timed acquisitions feed the histogram, the first one among them.
  EXPECT_EQ(after_first, 1u);
  EXPECT_EQ(stats->Snapshot().hold_ns.TotalCount(), TimedOfFirst(50));
  // Hold times around 10us must be visible in the histogram.
  EXPECT_GE(stats->Snapshot().hold_ns.Percentile(50), 4'000u);
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
        after_first = stats->Snapshot().hold_ns.TotalCount();
      }
    }
  }).join();
  EXPECT_EQ(stats->Acquisitions(), static_cast<std::uint64_t>(kAcquisitions));
  EXPECT_EQ(stats->Releases(), static_cast<std::uint64_t>(kAcquisitions));
  EXPECT_EQ(stats->Contentions(), 0u);
  EXPECT_EQ(after_first, 1u);  // a thread's first acquisition is timed
  const std::uint64_t samples = stats->Snapshot().hold_ns.TotalCount();
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
  EXPECT_EQ(stats->Snapshot().hold_ns.TotalCount(), samples + kAcquisitions);
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
    EXPECT_GE(stats->Snapshot().hold_ns.TotalCount(), 50u) << "lock " << id;
    EXPECT_LE(stats->Snapshot().hold_ns.TotalCount(), 150u) << "lock " << id;
  }
  EXPECT_EQ(concord.Stats(a)->Snapshot().hold_ns.TotalCount() +
                concord.Stats(b)->Snapshot().hold_ns.TotalCount(),
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
  EXPECT_GE(stats->Snapshot().wait_ns.TotalCount(), 1u);
  EXPECT_GT(stats->Snapshot().wait_ns.Max(), 0u);
}

// Every report is one cut of the shards: its counts keep Snapshot()'s clamps
// and its rate is its own contentions over its own acquisitions, exactly,
// while two threads on sockets 0 and 1 contend on the lock.
TEST_F(ProfilerTest, ReportsAreOneCutUnderContention) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "cut", "test");
  ASSERT_TRUE(concord.EnableProfiling(id).ok());
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (const std::uint32_t vcpu : {0u, 10u}) {
    workers.emplace_back([this, &stop, vcpu] {
      ThreadRegistry::Global().RegisterCurrent(vcpu);
      // Pauses inside and outside the critical section, so that each
      // arrives while the other holds the lock, and queues.
      while (!stop.load(std::memory_order_relaxed)) {
        {
          ShflGuard guard(lock_);
          for (int i = 0; i < 8; ++i) {
            CpuRelax();
          }
        }
        for (int i = 0; i < 8; ++i) {
          CpuRelax();
        }
      }
    });
  }

  const auto check_reports = [&] {
    for (int i = 0; i < 5'000; ++i) {
      SCOPED_TRACE(i);
      auto json = ParseJson(concord.StatsJson("cut"));
      ASSERT_TRUE(json.ok()) << json.status().ToString();
      const JsonValue* locks = json->Find("locks");
      ASSERT_NE(locks, nullptr);
      ASSERT_EQ(locks->array.size(), 1u);
      for (const JsonValue& lock : locks->array) {
        const JsonValue& stats = *lock.Find("stats");
        const double acquisitions = stats.Find("acquisitions")->number_value;
        const double contentions = stats.Find("contentions")->number_value;
        ASSERT_LE(contentions, acquisitions);
        ASSERT_LE(stats.Find("releases")->number_value, acquisitions);
        ASSERT_EQ(stats.Find("contention_rate")->number_value,
                  acquisitions == 0 ? 0.0 : contentions / acquisitions);
      }

      // "acq=A contended=C (P%) rel=R ...", P printed as %.1f of 100*C/A.
      const std::string report = concord.ProfileReport("cut");
      unsigned long long acq = 0;
      unsigned long long contended = 0;
      unsigned long long rel = 0;
      char percent[32] = {};
      ASSERT_EQ(std::sscanf(report.c_str(),
                            "cut [test]: acq=%llu contended=%llu "
                            "(%31[^%]%%) rel=%llu",
                            &acq, &contended, percent, &rel),
                4)
          << report;
      ASSERT_LE(contended, acq) << report;
      ASSERT_LE(rel, acq) << report;
      char expected[32];
      std::snprintf(expected, sizeof(expected), "%.1f",
                    acq == 0 ? 0.0
                             : 100.0 * (static_cast<double>(contended) /
                                        static_cast<double>(acq)));
      ASSERT_STREQ(percent, expected) << report;
    }
  };
  check_reports();
  stop.store(true);
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_GT(concord.Stats(id)->Contentions(), 0u);
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
  const Log2Histogram wait = stats.Snapshot().wait_ns;
  EXPECT_EQ(wait.TotalCount(), 1u);
  EXPECT_EQ(wait.Sum(), 6'000u);
  const Log2Histogram hold = stats.Snapshot().hold_ns;
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
  EXPECT_EQ(stats.Snapshot().wait_ns.TotalCount(), 0u);
  EXPECT_EQ(stats.Snapshot().hold_ns.TotalCount(), 0u);
}

TEST(ProfilerTapsTest, ReleaseWithoutSlotIsCountedButNotTimed) {
  // Profiling attached mid-critical-section: the release tap fires with no
  // acquired stamp. The release must count; no bogus hold sample.
  ShardedLockProfileStats stats;
  ProfilerTaps::OnRelease(stats, 11);
  EXPECT_EQ(stats.Releases(), 1u);
  EXPECT_EQ(stats.Snapshot().hold_ns.TotalCount(), 0u);
}

TEST(ProfilerTapsTest, UntimedQueuedGrantCountsACrossSocketHandoff) {
  ShardedLockProfileStats stats;
  const std::uint64_t id = 13;
  const std::uint32_t here = Self().socket;
  // The previous queued grant went to another socket.
  stats.ExchangeOwnerSocket(here + 1);
  // A fast-path grant is no handoff and leaves the owner socket alone.
  ProfilerTaps::OnAcquired(stats, id, TapStamps{0, 0, 0, false});
  EXPECT_EQ(stats.Snapshot().cross_socket_handoffs, 0u);
  // An untimed queued grant still counts.
  ProfilerTaps::OnAcquired(stats, id, TapStamps{0, 0, 0, true});
  EXPECT_EQ(stats.Snapshot().cross_socket_handoffs, 1u);
  // The next queued grant on the same socket is no handoff.
  ProfilerTaps::OnAcquired(stats, id, TapStamps{0, 0, 0, true});
  EXPECT_EQ(stats.Snapshot().cross_socket_handoffs, 1u);
  EXPECT_EQ(stats.ExchangeOwnerSocket(here), here);
  EXPECT_EQ(stats.Snapshot().wait_ns.TotalCount(), 0u);
}

TEST(ShardedStatsTest, CountersAggregateAcrossShards) {
  constexpr std::uint64_t kShards = ShardedLockProfileStats::kShards;
  ShardedLockProfileStats stats;
  stats.ControlShard().acquisitions.fetch_add(3);
  stats.ControlShard().quarantines.fetch_add(1);
  // kShards fresh threads take every shard between them (round-robin).
  std::vector<std::thread> workers;
  for (std::uint64_t t = 0; t < kShards; ++t) {
    workers.emplace_back([&stats] {
      LockProfileStats& shard = stats.Shard();
      shard.acquisitions.fetch_add(1);
      shard.socket_acquisitions[2].fetch_add(1);
      shard.wait_ns.Record(1'000);
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  const LockProfileSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.acquisitions, 3 + kShards);
  EXPECT_EQ(stats.Acquisitions(), 3 + kShards);
  EXPECT_EQ(snapshot.quarantines, 1u);
  EXPECT_EQ(snapshot.socket_acquisitions[2], kShards);
  EXPECT_EQ(snapshot.wait_ns.TotalCount(), kShards);
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
  // A counter below its earlier value (a worker restarted between two shm
  // reads) must not produce underflowed garbage; the others still diff.
  LockProfileSnapshot before;
  before.acquisitions = 100;
  before.quarantines = 2;
  LockProfileSnapshot after;
  after.acquisitions = 5;
  after.quarantines = 3;
  const LockProfileSnapshot delta = after.DeltaSince(before);
  EXPECT_EQ(delta.acquisitions, 0u);
  EXPECT_EQ(delta.quarantines, 1u);
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
