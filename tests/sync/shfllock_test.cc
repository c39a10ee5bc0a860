#include "src/sync/shfllock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/concord/concord.h"
#include "src/rcu/rcu.h"

namespace concord {
namespace {

// NUMA-grouping policy: group waiters from the shuffler's socket.
bool SameSocketCmp(void*, const ShflWaiterView& shuffler,
                   const ShflWaiterView& curr) {
  return shuffler.socket == curr.socket;
}

TEST(ShflLockTest, HooksInstallAndRevert) {
  ShflLock lock;
  EXPECT_EQ(lock.hook_site().Current(), nullptr);
  auto hooks = std::make_unique<HookTable>();
  hooks->cmp_node = SameSocketCmp;
  EXPECT_EQ(lock.hook_site().Install(hooks.get()), nullptr);
  EXPECT_EQ(lock.hook_site().Current(), hooks.get());
  EXPECT_EQ(lock.hook_site().Install(nullptr), hooks.get());
  Rcu::Global().Synchronize();
}

TEST(ShflLockTest, AcquisitionCountTracks) {
  ShflLock lock;
  const std::uint64_t before = lock.acquisitions();
  for (int i = 0; i < 10; ++i) {
    ShflGuard guard(lock);
  }
  EXPECT_EQ(lock.acquisitions(), before + 10);
}

TEST(ShflLockTest, SingleWriterCountersStayExactUnderContention) {
  // acquisitions() and each thread's locks_held are updated with a plain
  // load and store by their single writer. Under contention, TryLock and
  // nesting, every count must still match what the threads did and what the
  // profiler saw.
  ShflLock outer;
  ShflLock inner;
  Concord& concord = Concord::Global();
  const std::uint64_t ids[2] = {
      concord.RegisterShflLock(outer, "exact-outer", "exact"),
      concord.RegisterShflLock(inner, "exact-inner", "exact")};
  EXPECT_TRUE(concord.EnableProfilingBySelector("class:exact").ok());
  ShflLock* locks[2] = {&outer, &inner};

  constexpr int kThreads = 4;
  constexpr int kIters = 5'000;
  struct Counts {
    std::uint64_t locked[2] = {0, 0};  // via Lock()
    std::uint64_t tried[2] = {0, 0};   // via a successful TryLock()
    std::uint32_t held_at_exit = 0;
    bool nesting_miscounted = false;
  };
  std::vector<Counts> counts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Counts& mine = counts[t];
      Xoshiro256 rng(t + 1);
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t dice = rng.NextBounded(10);
        if (dice < 2) {
          if (outer.TryLock()) {
            ++mine.tried[0];
            outer.Unlock();
          }
          continue;
        }
        outer.Lock();
        ++mine.locked[0];
        if (dice < 5) {
          if (dice == 2) {
            if (inner.TryLock()) {
              ++mine.tried[1];
              mine.nesting_miscounted |= Self().locks_held.load() != 2;
              inner.Unlock();
            }
          } else {
            inner.Lock();
            ++mine.locked[1];
            mine.nesting_miscounted |= Self().locks_held.load() != 2;
            inner.Unlock();
          }
        }
        outer.Unlock();
      }
      mine.held_at_exit = Self().locks_held.load();
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  for (int k = 0; k < 2; ++k) {
    std::uint64_t locked = 0;
    std::uint64_t tried = 0;
    for (const Counts& c : counts) {
      locked += c.locked[k];
      tried += c.tried[k];
    }
    EXPECT_EQ(locks[k]->acquisitions(), locked + tried) << "lock " << k;
    // A successful TryLock fires the fast path's taps, so the profiler
    // counts every acquisition and every release.
    const ShardedLockProfileStats* stats = concord.Stats(ids[k]);
    EXPECT_NE(stats, nullptr);
    if (stats != nullptr) {
      EXPECT_EQ(stats->Acquisitions(), locked + tried) << "lock " << k;
      EXPECT_EQ(stats->Releases(), locked + tried) << "lock " << k;
    }
  }
  for (const Counts& c : counts) {
    EXPECT_EQ(c.held_at_exit, 0u);
    EXPECT_FALSE(c.nesting_miscounted);
  }
  EXPECT_TRUE(concord.Unregister(ids[0]).ok());
  EXPECT_TRUE(concord.Unregister(ids[1]).ok());
}

TEST(ShflLockTest, ProfilerCountsSuccessfulTryLocks) {
  ShflLock lock;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "try", "try");
  ASSERT_TRUE(concord.EnableProfiling(id).ok());
  const std::uint64_t before = lock.acquisitions();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(lock.TryLock());
    lock.Unlock();
  }
  const LockProfileSnapshot tried = concord.Stats(id)->Snapshot();
  EXPECT_EQ(lock.acquisitions() - before, 100u);
  EXPECT_EQ(tried.acquisitions, 100u);
  EXPECT_EQ(tried.releases, 100u);

  // A failed TryLock fires nothing.
  lock.Lock();
  std::thread([&] { EXPECT_FALSE(lock.TryLock()); }).join();
  lock.Unlock();
  const LockProfileSnapshot after = concord.Stats(id)->Snapshot();
  EXPECT_EQ(after.acquisitions, 101u);
  EXPECT_EQ(after.releases, 101u);
  EXPECT_EQ(lock.acquisitions() - before, 101u);
  EXPECT_TRUE(concord.Unregister(id).ok());
}

TEST(ShflLockTest, HoldTimeFeedsContextEwma) {
  // Hold-time accounting is policy food: it only runs while a hook table is
  // installed (so unpatched locks pay no clock reads).
  ShflLock lock;
  auto hooks = std::make_unique<HookTable>();
  hooks->track_hold_time = true;  // hold accounting is opt-in via the table
  lock.hook_site().Install(hooks.get());
  ThreadContext& ctx = Self();
  const std::uint64_t before =
      ctx.cs_length_ewma_ns.load(std::memory_order_relaxed);
  {
    ShflGuard guard(lock);
    BurnNs(200'000);
  }
  // One EWMA step (alpha 1/8) towards a hold of at least 200us.
  EXPECT_GE(ctx.cs_length_ewma_ns.load(std::memory_order_relaxed),
            before - before / 8 + 200'000 / 8);
  lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();

  // And without hooks, the accounting stays off.
  ShflLock plain;
  const std::uint64_t before_plain =
      ctx.cs_length_ewma_ns.load(std::memory_order_relaxed);
  {
    ShflGuard guard(plain);
    BurnNs(100'000);
  }
  EXPECT_EQ(ctx.cs_length_ewma_ns.load(std::memory_order_relaxed),
            before_plain);
}

TEST(ShflLockTest, ProfilingTapsFireInOrder) {
  ShflLock lock;
  lock.hook_site().SetLockId(77);
  struct TapLog {
    std::mutex mu;
    std::vector<std::pair<std::string, std::uint64_t>> events;
    void Add(const char* name, std::uint64_t id) {
      std::lock_guard<std::mutex> guard(mu);
      events.emplace_back(name, id);
    }
  } log;

  auto hooks = std::make_unique<HookTable>();
  hooks->user_data = &log;
  hooks->lock_acquire = [](void* ud, std::uint64_t id,
                         const TapStamps&) {
    static_cast<TapLog*>(ud)->Add("acquire", id);
  };
  hooks->lock_acquired = [](void* ud, std::uint64_t id,
                         const TapStamps&) {
    static_cast<TapLog*>(ud)->Add("acquired", id);
  };
  hooks->lock_release = [](void* ud, std::uint64_t id,
                         const TapStamps&) {
    static_cast<TapLog*>(ud)->Add("release", id);
  };
  lock.hook_site().Install(hooks.get());

  {
    ShflGuard guard(lock);
  }
  lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();

  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_EQ(log.events[0].first, "acquire");
  EXPECT_EQ(log.events[1].first, "acquired");
  EXPECT_EQ(log.events[2].first, "release");
  for (const auto& [name, id] : log.events) {
    EXPECT_EQ(id, 77u);
  }
}

// Sleeps (so other threads get the CPU even on a 1-core host) until `pred`
// holds or ~10s elapse. Returns whether the predicate held.
template <typename Pred>
bool AwaitCondition(Pred pred) {
  const std::uint64_t deadline = MonotonicNowNs() + 10'000'000'000ull;
  while (!pred()) {
    if (MonotonicNowNs() > deadline) {
      return false;
    }
    timespec ts{0, 1'000'000};  // 1ms
    nanosleep(&ts, nullptr);
  }
  return true;
}

TEST(ShflLockTest, ContendedTapFiresOnSlowPath) {
  ShflLock lock;
  std::atomic<int> contended{0};
  auto hooks = std::make_unique<HookTable>();
  hooks->user_data = &contended;
  hooks->lock_contended = [](void* ud, std::uint64_t,
                         const TapStamps&) {
    static_cast<std::atomic<int>*>(ud)->fetch_add(1);
  };
  lock.hook_site().Install(hooks.get());

  lock.Lock();
  std::thread waiter([&lock] {
    lock.Lock();
    lock.Unlock();
  });
  EXPECT_TRUE(AwaitCondition([&] { return contended.load() >= 1; }));
  lock.Unlock();
  waiter.join();
  lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();
  EXPECT_GE(contended.load(), 1);
}

TEST(ShflLockTest, ShuffleGroupsSameSocketWaiters) {
  // Deterministic shuffling scenario: the main thread holds the lock while
  // six waiters enqueue one at a time with alternating virtual sockets, so
  // the queue is S0,S1,S0,S1,S0,S1. The queue-head waiter (socket 0) must
  // pull the later socket-0 waiters forward past the socket-1 ones while the
  // main thread still holds the lock.
  MachineTopology::Global().ResetForTest();  // reset the round-robin cursor

  ShflLock lock;
  std::atomic<int> contended{0};
  auto hooks = std::make_unique<HookTable>();
  hooks->user_data = &contended;
  hooks->cmp_node = SameSocketCmp;
  hooks->lock_contended = [](void* ud, std::uint64_t,
                         const TapStamps&) {
    static_cast<std::atomic<int>*>(ud)->fetch_add(1);
  };
  lock.hook_site().Install(hooks.get());

  lock.Lock();
  constexpr int kWaiters = 6;
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWaiters; ++t) {
    // Alternate sockets 0 and 1 in arrival order.
    const std::uint32_t vcpu = (t % 2 == 0) ? t / 2 : 10 + t / 2;
    threads.emplace_back([&, vcpu] {
      ThreadRegistry::Global().RegisterCurrent(vcpu);
      lock.Lock();
      counter = counter + 1;
      lock.Unlock();
    });
    // Serialize arrival order.
    ASSERT_TRUE(AwaitCondition([&] { return contended.load() == t + 1; }));
    timespec ts{0, 2'000'000};
    nanosleep(&ts, nullptr);  // let the tap-ed thread finish enqueueing
  }
  // Give the queue head time to run shuffle rounds while we hold the lock;
  // with S0 waiters parked behind S1 ones, grouping requires actual moves.
  ASSERT_TRUE(AwaitCondition([&] { return lock.shuffle_moves() > 0; }));
  lock.Unlock();
  for (auto& thread : threads) {
    thread.join();
  }
  lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();

  EXPECT_EQ(counter, static_cast<std::uint64_t>(kWaiters));
  EXPECT_GT(lock.shuffle_rounds(), 0u);
  // Socket-0 waiters sat behind socket-1 waiters, so grouping required moves.
  EXPECT_GT(lock.shuffle_moves(), 0u);
}

TEST(ShflLockTest, SkipShuffleSuppressesShuffling) {
  ShflLock lock;
  auto hooks = std::make_unique<HookTable>();
  hooks->cmp_node = SameSocketCmp;
  hooks->skip_shuffle = [](void*, const ShflWaiterView&) { return true; };
  lock.hook_site().Install(hooks.get());

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        ShflGuard guard(lock);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();
  EXPECT_EQ(lock.shuffle_moves(), 0u);
}

TEST(ShflLockTest, BlockingModeParksWaiters) {
  ShflLock lock;
  lock.SetBlocking(true);
  lock.Lock();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    lock.Lock();
    acquired.store(true);
    lock.Unlock();
  });
  // Wait (sleeping, so the waiter gets CPU) until it has parked.
  EXPECT_TRUE(AwaitCondition([&] { return lock.parks() >= 1; }));
  EXPECT_FALSE(acquired.load());
  lock.Unlock();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_GE(lock.parks(), 1u);
}

TEST(ShflLockTest, ScheduleWaiterHookControlsParking) {
  ShflLock lock;
  lock.SetBlocking(true);
  std::atomic<int> contended{0};
  auto hooks = std::make_unique<HookTable>();
  hooks->user_data = &contended;
  // Never park, regardless of spin count.
  hooks->schedule_waiter = [](void*, const ShflWaiterView&, std::uint32_t) {
    return false;
  };
  hooks->lock_contended = [](void* ud, std::uint64_t,
                         const TapStamps&) {
    static_cast<std::atomic<int>*>(ud)->fetch_add(1);
  };
  lock.hook_site().Install(hooks.get());

  lock.Lock();
  std::thread waiter([&] {
    lock.Lock();
    lock.Unlock();
  });
  // Let the waiter reach the slow path and spin well past the default park
  // threshold; the hook must keep it off the futex.
  ASSERT_TRUE(AwaitCondition([&] { return contended.load() >= 1; }));
  timespec ts{0, 20'000'000};
  nanosleep(&ts, nullptr);
  EXPECT_EQ(lock.parks(), 0u);
  lock.Unlock();
  waiter.join();
  lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();
  EXPECT_EQ(lock.parks(), 0u);
}

TEST(ShflLockTest, HotSwapPolicyUnderContention) {
  // Swap policies repeatedly while threads hammer the lock; the lock must
  // stay correct and the old hook tables must be safely reclaimable.
  ShflLock lock;
  std::atomic<bool> stop{false};
  std::uint64_t counter = 0;
  constexpr int kThreads = 4;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        lock.Lock();
        counter = counter + 1;
        lock.Unlock();
      }
    });
  }

  for (int swap = 0; swap < 30; ++swap) {
    auto* hooks = new HookTable();
    hooks->cmp_node = SameSocketCmp;
    const HookTable* old = lock.hook_site().Install(hooks);
    Rcu::Global().Synchronize();
    delete old;
  }
  const HookTable* last = lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();
  delete last;

  stop.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  SUCCEED();
}

// Adversarial policy boosting socket-0 waiters over everyone else; the
// per-waiter bypass bound must cap how often the socket-1 victim is
// overtaken. The queue is built deterministically: the lock runs in blocking
// mode with a schedule_waiter that records each caller's task id and never
// parks. A waiter consults it only once it is linked into the queue (or is
// its head), so each thread is spawned only after the previous one's id is
// recorded, and the queue order is the spawn order.
TEST(ShflLockTest, BypassBoundProtectsVictimFromAdversarialPolicy) {
  MachineTopology::Global().ResetForTest();

  struct Arrivals {
    std::mutex mu;
    std::vector<std::uint32_t> task_ids;  // distinct, in first-call order

    std::size_t size() {
      std::lock_guard<std::mutex> guard(mu);
      return task_ids.size();
    }
  };

  auto run_scenario = [&](std::uint32_t bypass_bound) -> std::size_t {
    ShflLock lock;
    lock.SetBlocking(true);
    Arrivals arrivals;
    auto hooks = std::make_unique<HookTable>();
    hooks->user_data = &arrivals;
    hooks->cmp_node = [](void*, const ShflWaiterView&,
                         const ShflWaiterView& curr) {
      return curr.socket == 0;  // boost socket 0 unconditionally
    };
    hooks->schedule_waiter = [](void* ud, const ShflWaiterView& waiter,
                                std::uint32_t) {
      auto& seen = *static_cast<Arrivals*>(ud);
      std::lock_guard<std::mutex> guard(seen.mu);
      if (std::find(seen.task_ids.begin(), seen.task_ids.end(),
                    waiter.task_id) == seen.task_ids.end()) {
        seen.task_ids.push_back(waiter.task_id);
      }
      return false;  // never park
    };
    hooks->max_waiter_bypasses = bypass_bound;
    lock.hook_site().Install(hooks.get());

    std::vector<std::string> order;
    std::mutex order_mu;
    lock.Lock();
    std::vector<std::thread> threads;
    auto spawn = [&](const char* group, std::uint32_t vcpu) {
      threads.emplace_back([&, group, vcpu] {
        ThreadRegistry::Global().RegisterCurrent(vcpu);
        lock.Lock();
        {
          std::lock_guard<std::mutex> guard(order_mu);
          order.push_back(group);
        }
        lock.Unlock();
      });
      const std::size_t linked = threads.size();
      EXPECT_TRUE(AwaitCondition([&] { return arrivals.size() >= linked; }));
    };

    spawn("head", 0);     // socket 0, queue head (never bypassed)
    spawn("victim", 10);  // socket 1
    for (int i = 0; i < 6; ++i) {
      spawn("boosted", static_cast<std::uint32_t>(1 + i));  // socket 0
    }
    // Let the head shuffle the fully formed queue. The tail is never moved,
    // so five boosted waiters can pass the victim; a bound of 2 lets two
    // pass and freezes the next move.
    if (bypass_bound >= 5) {
      EXPECT_TRUE(AwaitCondition([&] { return lock.shuffle_moves() == 5; }));
    } else {
      EXPECT_TRUE(AwaitCondition([&] {
        return lock.shuffle_moves() == bypass_bound &&
               lock.bypass_freezes() > 0;
      }));
    }
    lock.Unlock();
    for (auto& thread : threads) {
      thread.join();
    }
    lock.hook_site().Install(nullptr);
    Rcu::Global().Synchronize();

    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == "victim") {
        return i + 1;  // 1-based grant position
      }
    }
    return 0;
  };

  // Unbounded (effectively): the victim is overtaken by every boosted waiter.
  const std::size_t unbounded_pos = run_scenario(ShflLock::kBypassCap);
  EXPECT_GE(unbounded_pos, 7u);
  // Bound of 2: at most two waiters may move past the victim.
  const std::size_t bounded_pos = run_scenario(2);
  EXPECT_LE(bounded_pos, 4u);
  EXPECT_GE(bounded_pos, 2u);  // head still runs first
}

// The wait_ns each waiter's views carried, by task id, as recorded by a raw
// table's hooks. The queue is built as in the bypass-bound test above: in
// blocking mode every queued waiter consults schedule_waiter, which records
// it and never parks, so each waiter is spawned once the previous one shows.
struct WaitViews {
  std::mutex mu;
  std::map<std::uint32_t, std::vector<std::uint64_t>> by_task;
  std::uint64_t compared = 0;  // cmp_node calls

  void Record(const ShflWaiterView& view) {
    std::lock_guard<std::mutex> guard(mu);
    by_task[view.task_id].push_back(view.wait_ns);
  }
  std::size_t waiters() {
    std::lock_guard<std::mutex> guard(mu);
    return by_task.size();
  }
  std::size_t views_of(std::uint32_t task_id) {
    std::lock_guard<std::mutex> guard(mu);
    return by_task[task_id].size();
  }

  static bool RecordWaiter(void* ud, const ShflWaiterView& waiter,
                           std::uint32_t) {
    static_cast<WaitViews*>(ud)->Record(waiter);
    return false;  // never park
  }
};

// Spawns `count` waiters on the held `lock` one after another, each once
// `views` has seen the one before; returns their task ids in queue order.
std::vector<std::uint32_t> QueueWaiters(ShflLock& lock, WaitViews& views,
                                        int count,
                                        std::vector<std::thread>& threads) {
  std::vector<std::uint32_t> task_ids;
  for (int i = 0; i < count; ++i) {
    auto task_id = std::make_shared<std::atomic<std::uint32_t>>(~0u);
    threads.emplace_back([&lock, task_id] {
      task_id->store(Self().task_id);
      ShflGuard guard(lock);
    });
    EXPECT_TRUE(AwaitCondition([&] {
      return *task_id != ~0u && views.views_of(*task_id) > 0;
    }));
    task_ids.push_back(*task_id);
  }
  return task_ids;
}

// A table that leaves track_wait_time unset hands every decision hook a
// wait_ns of 0, even for waiters its hold accounting stamped at enqueue.
TEST(ShflLockTest, TableWithoutWaitStampsSeesZeroWait) {
  ShflLock lock;
  lock.SetBlocking(true);
  WaitViews views;
  HookTable hooks;
  hooks.user_data = &views;
  hooks.track_hold_time = true;  // every acquisition timed and stamped
  hooks.schedule_waiter = WaitViews::RecordWaiter;
  hooks.cmp_node = [](void* ud, const ShflWaiterView& shuffler,
                      const ShflWaiterView& curr) {
    auto& seen = *static_cast<WaitViews*>(ud);
    seen.Record(shuffler);
    seen.Record(curr);
    std::lock_guard<std::mutex> guard(seen.mu);
    ++seen.compared;
    return false;
  };
  lock.hook_site().Install(&hooks);
  EXPECT_EQ(lock.hook_site().mask() & HookSite::kTrackWaitTime, 0u);

  lock.Lock();
  std::vector<std::thread> threads;
  QueueWaiters(lock, views, 3, threads);
  // The head shuffles over the second waiter (the third is the tail).
  EXPECT_TRUE(AwaitCondition([&] {
    std::lock_guard<std::mutex> guard(views.mu);
    return views.compared > 0;
  }));
  lock.Unlock();
  for (auto& thread : threads) {
    thread.join();
  }
  lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();

  EXPECT_EQ(views.by_task.size(), 3u);
  for (const auto& [task_id, waits] : views.by_task) {
    for (std::uint64_t wait_ns : waits) {
      EXPECT_EQ(wait_ns, 0u) << "task " << task_id;
    }
  }
}

// Waiters that queued before a table asked for wait stamps were never
// stamped: once it is installed their views carry wait_ns 0, not the clock's
// epoch (the host's uptime), while a waiter that queues after it sees a real
// wait.
TEST(ShflLockTest, WaiterQueuedBeforeWaitStampsReportsZeroWait) {
  ShflLock lock;
  lock.SetBlocking(true);
  WaitViews before;
  HookTable unstamped;
  unstamped.user_data = &before;
  unstamped.schedule_waiter = WaitViews::RecordWaiter;
  lock.hook_site().Install(&unstamped);

  lock.Lock();
  std::vector<std::thread> threads;
  const std::vector<std::uint32_t> early =
      QueueWaiters(lock, before, 2, threads);

  WaitViews after;
  HookTable stamped;
  stamped.user_data = &after;
  stamped.track_wait_time = true;
  stamped.schedule_waiter = WaitViews::RecordWaiter;
  lock.hook_site().Install(&stamped);
  Rcu::Global().Synchronize();  // no waiter still runs `unstamped`
  EXPECT_NE(lock.hook_site().mask() & HookSite::kTrackWaitTime, 0u);
  const std::uint32_t late = QueueWaiters(lock, after, 1, threads)[0];
  // Every waiter consults the new table, and the late one has waited.
  EXPECT_TRUE(AwaitCondition([&] {
    std::lock_guard<std::mutex> guard(after.mu);
    return after.by_task[early[0]].size() > 1 &&
           after.by_task[early[1]].size() > 1 &&
           after.by_task[late].back() > 0;
  }));
  lock.Unlock();
  for (auto& thread : threads) {
    thread.join();
  }
  lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();

  for (const std::uint32_t task_id : early) {
    ASSERT_FALSE(after.by_task[task_id].empty());
    for (std::uint64_t wait_ns : after.by_task[task_id]) {
      EXPECT_EQ(wait_ns, 0u) << "task " << task_id;
    }
  }
  // A real wait: a second at most, far below any host's uptime.
  EXPECT_GT(after.by_task[late].back(), 0u);
  EXPECT_LT(after.by_task[late].back(), 1'000'000'000u);
}

TEST(ShflLockTest, MaxShuffleRoundsBoundsWork) {
  ShflLock lock;
  auto hooks = std::make_unique<HookTable>();
  hooks->cmp_node = SameSocketCmp;
  hooks->max_shuffle_rounds = ShflLock::kShuffleRoundCap + 1000;  // over cap
  lock.hook_site().Install(hooks.get());
  // The clamp is internal; just exercise contention and ensure no livelock.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        ShflGuard guard(lock);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();
  SUCCEED();
}

}  // namespace
}  // namespace concord
