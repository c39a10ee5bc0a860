// Property tests shared by all readers-writer locks, plus flavour-specific
// checks for the distributed per-socket lock.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/base/time.h"
#include "src/sync/bravo.h"
#include "src/sync/lock.h"
#include "src/sync/rw_lock.h"

namespace concord {
namespace {

template <typename LockType>
class RwPropertyTest : public ::testing::Test {
 protected:
  LockType lock_;
};

using RwTypes = ::testing::Types<NeutralRwLock, BravoLock<NeutralRwLock>>;
TYPED_TEST_SUITE(RwPropertyTest, RwTypes);

TYPED_TEST(RwPropertyTest, UncontendedReadAndWrite) {
  this->lock_.ReadLock();
  this->lock_.ReadUnlock();
  this->lock_.WriteLock();
  this->lock_.WriteUnlock();
}

TYPED_TEST(RwPropertyTest, ParallelReadersDoNotExclude) {
  // Rendezvous: reader A holds the read lock until B has also acquired it
  // (or a liveness timeout fires so a buggy exclusive reader cannot deadlock
  // the test). Overlap is the assertion.
  std::atomic<bool> a_in{false};
  std::atomic<bool> b_in{false};
  std::atomic<bool> a_released{false};
  std::atomic<bool> overlapped{false};

  std::thread reader_a([this, &a_in, &b_in, &a_released] {
    this->lock_.ReadLock();
    a_in.store(true);
    const std::uint64_t deadline = MonotonicNowNs() + 10'000'000'000ull;
    while (!b_in.load() && MonotonicNowNs() < deadline) {
      timespec ts{0, 1'000'000};
      nanosleep(&ts, nullptr);
    }
    a_released.store(true);
    this->lock_.ReadUnlock();
  });
  std::thread reader_b([this, &a_in, &b_in, &a_released, &overlapped] {
    while (!a_in.load()) {
      std::this_thread::yield();
    }
    this->lock_.ReadLock();
    if (!a_released.load()) {
      overlapped.store(true);  // both readers inside simultaneously
    }
    b_in.store(true);
    this->lock_.ReadUnlock();
  });
  reader_a.join();
  reader_b.join();
  EXPECT_TRUE(overlapped.load());
}

TYPED_TEST(RwPropertyTest, WriterExcludesReadersAndWriters) {
  std::atomic<int> readers_inside{0};
  std::atomic<int> writers_inside{0};
  std::atomic<bool> violated{false};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &readers_inside, &writers_inside, &violated, t] {
      for (int i = 0; i < 1500; ++i) {
        if ((t + i) % 4 == 0) {
          this->lock_.WriteLock();
          if (writers_inside.fetch_add(1) != 0 || readers_inside.load() != 0) {
            violated.store(true);
          }
          writers_inside.fetch_sub(1);
          this->lock_.WriteUnlock();
        } else {
          this->lock_.ReadLock();
          readers_inside.fetch_add(1);
          if (writers_inside.load() != 0) {
            violated.store(true);
          }
          readers_inside.fetch_sub(1);
          this->lock_.ReadUnlock();
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(violated.load());
}

TYPED_TEST(RwPropertyTest, WriteProtectedCounterHasNoLostUpdates) {
  std::uint64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &counter] {
      for (int i = 0; i < kIters; ++i) {
        this->lock_.WriteLock();
        counter = counter + 1;
        this->lock_.WriteUnlock();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(NeutralRwLockTest, TryVariants) {
  NeutralRwLock lock;
  ASSERT_TRUE(lock.TryReadLock());
  EXPECT_TRUE(lock.TryReadLock());  // readers share
  EXPECT_FALSE(lock.TryWriteLock());
  lock.ReadUnlock();
  lock.ReadUnlock();
  ASSERT_TRUE(lock.TryWriteLock());
  EXPECT_FALSE(lock.TryReadLock());
  EXPECT_FALSE(lock.TryWriteLock());
  lock.WriteUnlock();
}

TEST(NeutralRwLockTest, ReaderCountIntrospection) {
  NeutralRwLock lock;
  lock.ReadLock();
  lock.ReadLock();
  EXPECT_EQ(lock.reader_count(), 2);
  EXPECT_FALSE(lock.write_locked());
  lock.ReadUnlock();
  lock.ReadUnlock();
  lock.WriteLock();
  EXPECT_TRUE(lock.write_locked());
  lock.WriteUnlock();
}

}  // namespace
}  // namespace concord
