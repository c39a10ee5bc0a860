#include "src/kernelsim/vfs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/rcu/rcu.h"
#include "src/topology/thread_context.h"

namespace concord {
namespace {

// `prefix` followed by `a`, and by "_" and `b` when `b` is not negative
// ("t1_7"), built by appending to one string.
std::string FileName(const char* prefix, int a, int b = -1) {
  std::string name = prefix;
  name += std::to_string(a);
  if (b >= 0) {
    name += '_';
    name += std::to_string(b);
  }
  return name;
}

TEST(VfsTest, CreateLookupUnlink) {
  VfsNamespace ns(4);
  ASSERT_TRUE(ns.Create(0, "a.txt", 42).ok());
  auto value = ns.Lookup(0, "a.txt");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42u);
  EXPECT_EQ(ns.Create(0, "a.txt", 1).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(ns.Unlink(0, "a.txt").ok());
  EXPECT_EQ(ns.Lookup(0, "a.txt").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ns.Unlink(0, "a.txt").code(), StatusCode::kNotFound);
}

TEST(VfsTest, BadDirectoryIndexRejected) {
  VfsNamespace ns(2);
  EXPECT_FALSE(ns.Create(5, "x", 0).ok());
  EXPECT_FALSE(ns.Unlink(5, "x").ok());
  EXPECT_FALSE(ns.Lookup(5, "x").ok());
  EXPECT_FALSE(ns.Rename(0, "x", 5, "y").ok());
}

TEST(VfsTest, RenameWithinDirectory) {
  VfsNamespace ns(2);
  ASSERT_TRUE(ns.Create(0, "old", 7).ok());
  ASSERT_TRUE(ns.Rename(0, "old", 0, "new").ok());
  EXPECT_FALSE(ns.Lookup(0, "old").ok());
  auto value = ns.Lookup(0, "new");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 7u);
}

TEST(VfsTest, RenameAcrossDirectories) {
  VfsNamespace ns(4);
  ASSERT_TRUE(ns.Create(2, "file", 9).ok());
  ASSERT_TRUE(ns.Rename(2, "file", 1, "moved").ok());
  EXPECT_FALSE(ns.Lookup(2, "file").ok());
  auto value = ns.Lookup(1, "moved");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 9u);
  EXPECT_EQ(ns.total_entries(), 1u);
}

TEST(VfsTest, RenameMissingSourceFails) {
  VfsNamespace ns(2);
  EXPECT_EQ(ns.Rename(0, "ghost", 1, "x").code(), StatusCode::kNotFound);
}

TEST(VfsTest, RenameHoldsRenameLockWhileTakingDirLocks) {
  // While a renamer waits on a directory lock it must advertise
  // locks_held >= 1 (it holds the rename lock). We observe this through the
  // directory lock's hook view by installing a native cmp policy that
  // records what it sees.
  VfsNamespace ns(2);
  struct Observed {
    std::atomic<std::uint32_t> max_locks_held{0};
  } observed;

  auto hooks = std::make_unique<HookTable>();
  hooks->user_data = &observed;
  hooks->cmp_node = [](void* ud, const ShflWaiterView&,
                       const ShflWaiterView& curr) {
    auto* obs = static_cast<Observed*>(ud);
    std::uint32_t prev = obs->max_locks_held.load();
    while (curr.locks_held > prev &&
           !obs->max_locks_held.compare_exchange_weak(prev, curr.locks_held)) {
    }
    return false;
  };
  ns.dir_lock(0).hook_site().Install(hooks.get());

  ASSERT_TRUE(ns.Create(0, "f", 1).ok());
  // Create contention on dir 0 so renamers queue there with a shuffler.
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&ns, &stop, t] {
      int i = 0;
      while (!stop.load()) {
        const std::string name = FileName("t", t, i++);
        if (ns.Create(0, name, 0).ok()) {
          ns.Unlink(0, name).ok();
        }
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    const std::string src = FileName("r", i);
    if (ns.Create(1, src, 0).ok()) {
      ns.Rename(1, src, 0, src + "_moved").ok();
      ns.Unlink(0, src + "_moved").ok();
    }
  }
  stop.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  ns.dir_lock(0).hook_site().Install(nullptr);
  Rcu::Global().Synchronize();
  // Best-effort: under single-core scheduling the shuffler may never have
  // examined a renamer; only assert we never saw nonsense (> nesting cap).
  EXPECT_LE(observed.max_locks_held.load(), 16u);
}

TEST(VfsTest, ConcurrentRenamesAndCreatesKeepNamespaceConsistent) {
  VfsNamespace ns(8);
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ns, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kIters; ++i) {
        const std::string name = FileName("f", t, i);
        const auto src = static_cast<std::uint32_t>(rng.NextBounded(8));
        const auto dst = static_cast<std::uint32_t>(rng.NextBounded(8));
        ASSERT_TRUE(ns.Create(src, name, i).ok());
        ASSERT_TRUE(ns.Rename(src, name, dst, name + "_m").ok());
        ASSERT_TRUE(ns.Unlink(dst, name + "_m").ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(ns.total_entries(), 0u);
}

}  // namespace
}  // namespace concord
