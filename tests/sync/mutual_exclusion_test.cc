// Property test: mutual exclusion and lost-update freedom for every mutex-
// style lock in the library, exercised through one typed harness.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/sync/shfllock.h"
#include "src/sync/ticket_lock.h"

namespace concord {
namespace {

struct BlockingShflAdapter {
  BlockingShflAdapter() { lock.SetBlocking(true); }
  ShflLock lock;
  void Lock() { lock.Lock(); }
  void Unlock() { lock.Unlock(); }
  bool TryLock() { return lock.TryLock(); }
};

template <typename LockType>
class MutexPropertyTest : public ::testing::Test {
 protected:
  LockType lock_;
};

using MutexTypes =
    ::testing::Types<TicketLock, ShflLock, BlockingShflAdapter>;
TYPED_TEST_SUITE(MutexPropertyTest, MutexTypes);

TYPED_TEST(MutexPropertyTest, UncontendedLockUnlock) {
  this->lock_.Lock();
  this->lock_.Unlock();
  this->lock_.Lock();
  this->lock_.Unlock();
}

TYPED_TEST(MutexPropertyTest, TryLockSucceedsWhenFree) {
  ASSERT_TRUE(this->lock_.TryLock());
  this->lock_.Unlock();
}

TYPED_TEST(MutexPropertyTest, TryLockFailsWhenHeld) {
  this->lock_.Lock();
  std::thread other([&] { EXPECT_FALSE(this->lock_.TryLock()); });
  other.join();
  this->lock_.Unlock();
}

TYPED_TEST(MutexPropertyTest, NoLostUpdates) {
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::uint64_t counter = 0;  // deliberately non-atomic

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &counter] {
      for (int i = 0; i < kIters; ++i) {
        this->lock_.Lock();
        counter = counter + 1;
        this->lock_.Unlock();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TYPED_TEST(MutexPropertyTest, MutualExclusionInvariantNeverViolated) {
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::atomic<int> inside{0};
  std::atomic<bool> violated{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &inside, &violated] {
      for (int i = 0; i < kIters; ++i) {
        this->lock_.Lock();
        if (inside.fetch_add(1, std::memory_order_acq_rel) != 0) {
          violated.store(true);
        }
        inside.fetch_sub(1, std::memory_order_acq_rel);
        this->lock_.Unlock();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(violated.load());
}

TYPED_TEST(MutexPropertyTest, HandoffChainOfDependentWork) {
  // Each thread appends to a shared vector; total order must contain every
  // element exactly once (checks handoff does not skip/duplicate grants).
  constexpr int kThreads = 3;
  constexpr int kIters = 2000;
  std::vector<int> log;
  log.reserve(kThreads * kIters);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &log, t] {
      for (int i = 0; i < kIters; ++i) {
        this->lock_.Lock();
        log.push_back(t);
        this->lock_.Unlock();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kThreads) * kIters);
  int counts[kThreads] = {};
  for (int t : log) {
    ++counts[t];
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counts[t], kIters);
  }
}

}  // namespace
}  // namespace concord
