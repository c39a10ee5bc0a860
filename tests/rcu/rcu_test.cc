#include "src/rcu/rcu.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/base/time.h"

namespace concord {
namespace {

TEST(RcuTest, ReadSectionNestingTracked) {
  Rcu& rcu = Rcu::Global();
  EXPECT_FALSE(rcu.InReadSection());
  rcu.ReadLock();
  EXPECT_TRUE(rcu.InReadSection());
  rcu.ReadLock();
  EXPECT_TRUE(rcu.InReadSection());
  rcu.ReadUnlock();
  EXPECT_TRUE(rcu.InReadSection());
  rcu.ReadUnlock();
  EXPECT_FALSE(rcu.InReadSection());
}

TEST(RcuTest, GuardIsRaii) {
  Rcu& rcu = Rcu::Global();
  {
    RcuReadGuard guard;
    EXPECT_TRUE(rcu.InReadSection());
  }
  EXPECT_FALSE(rcu.InReadSection());
}

TEST(RcuTest, SynchronizeWithNoReadersReturns) {
  Rcu::Global().Synchronize();
  SUCCEED();
}

TEST(RcuTest, SynchronizeWaitsForActiveReader) {
  std::atomic<bool> reader_in{false};
  std::atomic<bool> reader_release{false};
  std::atomic<bool> sync_done{false};

  std::thread reader([&] {
    Rcu::Global().ReadLock();
    reader_in.store(true);
    while (!reader_release.load()) {
      std::this_thread::yield();
    }
    // Synchronize must not have completed while we were inside.
    EXPECT_FALSE(sync_done.load());
    Rcu::Global().ReadUnlock();
  });

  while (!reader_in.load()) {
    std::this_thread::yield();
  }

  std::thread writer([&] {
    Rcu::Global().Synchronize();
    sync_done.store(true);
  });

  // Give the writer a moment: it must be blocked on the reader.
  BurnNs(5'000'000);
  EXPECT_FALSE(sync_done.load());

  reader_release.store(true);
  writer.join();
  reader.join();
  EXPECT_TRUE(sync_done.load());
}

TEST(RcuTest, SynchronizeDoesNotWaitForNewReaders) {
  // A reader that starts after Synchronize begins must not block it forever;
  // this is the two-flip property. We approximate by hammering short read
  // sections while a writer synchronizes repeatedly.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      RcuReadGuard guard;
    }
  });
  for (int i = 0; i < 50; ++i) {
    Rcu::Global().Synchronize();
  }
  stop.store(true);
  reader.join();
  SUCCEED();  // termination is the assertion
}

TEST(RcuTest, RcuPointerSwapPublishes) {
  RcuPointer<int> ptr(new int(1));
  int* old = nullptr;
  {
    RcuReadGuard guard;
    EXPECT_EQ(*ptr.Read(), 1);
  }
  old = ptr.Swap(new int(2));
  EXPECT_EQ(*old, 1);
  Rcu::Global().Synchronize();
  delete old;
  {
    RcuReadGuard guard;
    EXPECT_EQ(*ptr.Read(), 2);
  }
  delete ptr.Swap(nullptr);
}

TEST(RcuTest, ReadersNeverObserveFreedObject) {
  // Stress: writers continually replace an object; readers dereference it
  // under RCU. A use-after-free would be caught by the generation check
  // (and by ASan when enabled).
  struct Node {
    explicit Node(std::uint64_t g) : generation(g), alive(0xa11fed) {}
    std::uint64_t generation;
    std::uint64_t alive;
  };
  RcuPointer<Node> ptr(new Node(0));
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        RcuReadGuard guard;
        Node* node = ptr.Read();
        ASSERT_NE(node, nullptr);
        ASSERT_EQ(node->alive, 0xa11fedull);
      }
    });
  }

  for (std::uint64_t gen = 1; gen <= 200; ++gen) {
    Node* old = ptr.Swap(new Node(gen));
    Rcu::Global().Synchronize();
    old->alive = 0xdead;  // poison before freeing
    delete old;
  }
  stop.store(true);
  for (auto& t : readers) {
    t.join();
  }
  delete ptr.Swap(nullptr);
}

}  // namespace
}  // namespace concord
