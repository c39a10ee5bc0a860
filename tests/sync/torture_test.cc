// Lock torture — the kernel locktorture analogue.
//
// Mixed random operations (lock, trylock, nested other-lock acquisition,
// variable hold/think times) against every mutex-style lock, with a shared
// non-atomic invariant structure that any exclusion bug corrupts. The
// ShflLock variant additionally churns policies, blocking mode and profiling
// while the torture runs — the harshest realistic use of the Concord control
// plane.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/sync/shfllock.h"
#include "src/sync/ticket_lock.h"

namespace concord {
namespace {

// Invariant payload: all fields must stay consistent under the lock.
struct TorturePayload {
  std::uint64_t a = 0;
  std::uint64_t b = 0;  // invariant: b == a * 2
  std::uint64_t c = 1;  // invariant: c == a + 1

  void Mutate() {
    a += 1;
    b = a * 2;
    c = a + 1;
  }
  bool Consistent() const { return b == a * 2 && c == a + 1; }
};

template <typename LockT>
void TortureMutex(LockT& lock, int threads, int iters_per_thread) {
  TorturePayload payload;
  std::atomic<bool> violated{false};
  std::atomic<std::uint64_t> completed{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(t * 7919 + 1);
      for (int i = 0; i < iters_per_thread; ++i) {
        const std::uint64_t dice = rng.NextBounded(100);
        if (dice < 10) {
          // Trylock path: mutate only on success.
          if (lock.TryLock()) {
            if (!payload.Consistent()) {
              violated.store(true);
            }
            payload.Mutate();
            if (dice < 3) {
              BurnNs(rng.NextBounded(2'000));
            }
            lock.Unlock();
            completed.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          lock.Lock();
          if (!payload.Consistent()) {
            violated.store(true);
          }
          payload.Mutate();
          if (dice < 15) {
            BurnNs(rng.NextBounded(3'000));  // occasional long hold
          }
          lock.Unlock();
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        if (dice >= 97) {
          BurnNs(rng.NextBounded(5'000));  // think time
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  EXPECT_FALSE(violated.load());
  EXPECT_TRUE(payload.Consistent());
  EXPECT_EQ(payload.a, completed.load());
}

TEST(LockTortureTest, TicketLock) {
  TicketLock lock;
  TortureMutex(lock, 4, 8000);
}

TEST(LockTortureTest, ShflLockSpin) {
  ShflLock lock;
  TortureMutex(lock, 4, 8000);
}

TEST(LockTortureTest, ShflLockBlocking) {
  ShflLock lock;
  lock.SetBlocking(true);
  TortureMutex(lock, 4, 8000);
}

TEST(LockTortureTest, ShflLockUnderFullControlPlaneChurn) {
  // Torture the lock while the Concord control plane continuously attaches,
  // retunes, profiles and detaches policies, and toggles blocking mode.
  static ShflLock lock;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "torture", "t");

  TorturePayload payload;
  std::atomic<bool> violated{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        lock.Lock();
        if (!payload.Consistent()) {
          violated.store(true);
        }
        payload.Mutate();
        lock.Unlock();
        completed.fetch_add(1, std::memory_order_relaxed);
        if (rng.NextBounded(64) == 0) {
          BurnNs(rng.NextBounded(2'000));
        }
      }
    });
  }

  Xoshiro256 churn_rng(42);
  for (int round = 0; round < 40; ++round) {
    switch (churn_rng.NextBounded(6)) {
      case 0: {
        auto policy = MakeNumaGroupingPolicy();
        ASSERT_TRUE(policy.ok());
        ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());
        break;
      }
      case 1: {
        auto policy = MakePriorityBoostPolicy();
        ASSERT_TRUE(policy.ok());
        ASSERT_TRUE(policy->SetKnob(0, churn_rng.NextBounded(20)).ok());
        ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());
        break;
      }
      case 2:
        ASSERT_TRUE(concord.Detach(id).ok());
        break;
      case 3:
        ASSERT_TRUE(concord.EnableProfiling(id).ok());
        break;
      case 4:
        ASSERT_TRUE(concord.DisableProfiling(id).ok());
        break;
      case 5:
        lock.SetBlocking(churn_rng.NextBounded(2) == 0);
        break;
    }
    timespec ts{0, 2'000'000};
    nanosleep(&ts, nullptr);
  }

  stop.store(true);
  for (auto& worker : workers) {
    worker.join();
  }
  ASSERT_TRUE(concord.Unregister(id).ok());

  EXPECT_FALSE(violated.load());
  EXPECT_TRUE(payload.Consistent());
  EXPECT_EQ(payload.a, completed.load());
  EXPECT_GT(completed.load(), 0u);
}

}  // namespace
}  // namespace concord
