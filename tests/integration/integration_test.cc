// End-to-end scenarios: kernel-sim subsystems + Concord policies together,
// including adversarial policies that try to break fairness/liveness and a
// full Table-1 attachment (programs on every hook at once).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/bpf/assembler.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/kernelsim/address_space.h"
#include "src/kernelsim/vfs.h"
#include "src/sync/bravo.h"

namespace concord {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void TearDown() override { Concord::Global().ResetForTest(); }
};

TEST_F(IntegrationTest, VfsRenameWithInheritancePolicyOnDirClass) {
  static VfsNamespace ns(4);
  Concord& concord = Concord::Global();
  for (std::uint32_t d = 0; d < ns.num_dirs(); ++d) {
    concord.RegisterShflLock(ns.dir_lock(d), "dir" + std::to_string(d), "vfs_dir");
  }
  concord.RegisterShflLock(ns.rename_lock(), "rename_lock", "vfs");

  auto policy = MakeLockInheritancePolicy();
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(concord.AttachBySelector("class:vfs_dir", policy->spec).ok());

  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Xoshiro256 rng(t + 11);
      for (int i = 0; i < kIters; ++i) {
        std::string name = "x";
        name += std::to_string(t);
        name += '_';
        name += std::to_string(i);
        const auto src = static_cast<std::uint32_t>(rng.NextBounded(4));
        const auto dst = static_cast<std::uint32_t>(rng.NextBounded(4));
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
  for (std::uint32_t d = 0; d < ns.num_dirs(); ++d) {
    EXPECT_NE(ns.dir_lock(d).hook_site().Current(), nullptr);
  }
}

TEST_F(IntegrationTest, AddressSpaceWithLiveRwModeSwitching) {
  static AddressSpace<BravoLock<NeutralRwLock>> aspace;
  Concord& concord = Concord::Global();
  const std::uint64_t id =
      concord.RegisterRwLock(aspace.mmap_sem(), "mmap_sem", "vm");
  auto policy = MakeRwSwitchPolicy(RwMode::kNeutral);
  ASSERT_TRUE(policy.ok());
  auto knob = policy->knobs;
  ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());

  auto run_faults = [&] {
    const std::uint64_t addr = aspace.Mmap(64 * kPageSize);
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&aspace2 = aspace, addr] {
        for (std::uint64_t p = 0; p < 64; ++p) {
          ASSERT_TRUE(aspace2.HandlePageFault(addr + p * kPageSize).ok());
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    ASSERT_TRUE(aspace.Munmap(addr).ok());
  };

  // Phase 1: neutral.
  run_faults();
  const std::uint64_t fast_before = aspace.mmap_sem().fast_reads();
  EXPECT_EQ(fast_before, 0u);

  // Phase 2: reader bias — fault path must hit the BRAVO fast path.
  ASSERT_TRUE(knob->UpdateTyped(std::uint32_t{0},
                                static_cast<std::uint64_t>(RwMode::kReaderBias))
                  .ok());
  run_faults();
  EXPECT_GT(aspace.mmap_sem().fast_reads(), 0u);

  // Phase 3: writer-only — still correct, zero new fast reads.
  const std::uint64_t fast_mid = aspace.mmap_sem().fast_reads();
  ASSERT_TRUE(knob->UpdateTyped(std::uint32_t{0},
                                static_cast<std::uint64_t>(RwMode::kWriterOnly))
                  .ok());
  run_faults();
  EXPECT_EQ(aspace.mmap_sem().fast_reads(), fast_mid);
}

// --- adversarial policies ---------------------------------------------------

TEST_F(IntegrationTest, AlwaysBoostPolicyCannotBreakLiveness) {
  // cmp_node returning 1 for everyone: maximal reordering pressure. The
  // shuffle-round budget and queue-integrity checks must keep the lock live
  // and exact.
  static ShflLock lock;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "adv", "t");

  auto program = AssembleProgram("always_yes", "mov r0, 1\nexit\n",
                                 &DescriptorFor(HookKind::kCmpNode));
  ASSERT_TRUE(program.ok());
  PolicySpec spec;
  spec.name = "always_boost";
  spec.max_shuffle_rounds = 4;  // tight starvation bound
  ASSERT_TRUE(spec.AddProgram(HookKind::kCmpNode, std::move(*program)).ok());
  ASSERT_TRUE(concord.Attach(id, std::move(spec)).ok());

  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 4000; ++i) {
        ShflGuard guard(lock);
        counter = counter + 1;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 16'000u);
}

TEST_F(IntegrationTest, AlwaysParkPolicyStillMakesProgress) {
  static ShflLock lock;
  lock.SetBlocking(true);
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "park", "t");

  auto program = AssembleProgram("always_park", "mov r0, 1\nexit\n",
                                 &DescriptorFor(HookKind::kScheduleWaiter));
  ASSERT_TRUE(program.ok());
  PolicySpec spec;
  spec.name = "always_park";
  ASSERT_TRUE(spec.AddProgram(HookKind::kScheduleWaiter, std::move(*program)).ok());
  ASSERT_TRUE(concord.Attach(id, std::move(spec)).ok());

  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1500; ++i) {
        ShflGuard guard(lock);
        counter = counter + 1;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 6'000u);
  lock.SetBlocking(false);
}

TEST_F(IntegrationTest, Table1FullAttachmentAllHooksLive) {
  // Programs on every Table-1 hook at once: cmp_node + skip_shuffle +
  // schedule_waiter + the four profiling taps counting into a per-CPU map.
  static ShflLock lock;
  lock.SetBlocking(true);
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "full", "t");

  auto numa = MakeNumaGroupingPolicy();
  ASSERT_TRUE(numa.ok());
  auto guard_policy = MakeShuffleFairnessGuard();
  ASSERT_TRUE(guard_policy.ok());
  auto parking = MakeAdaptiveParkingPolicy();
  ASSERT_TRUE(parking.ok());
  auto profiler = MakeBpfProfilerPolicy();
  ASSERT_TRUE(profiler.ok());
  auto counters = profiler->counters;

  PolicySpec all;
  all.name = "table1_full";
  auto merge = [&all](PolicySpec& from) {
    for (int k = 0; k < kNumHookKinds; ++k) {
      for (Program& program : from.chains[k].programs) {
        all.chains[k].programs.push_back(std::move(program));
      }
    }
    for (auto& map : from.maps) {
      all.maps.push_back(map);
    }
  };
  merge(numa->spec);
  merge(guard_policy->spec);
  merge(parking->spec);
  merge(profiler->spec);
  ASSERT_TRUE(concord.Attach(id, std::move(all)).ok());

  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        ShflGuard guard(lock);
        counter = counter + 1;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 8'000u);
  // The BPF taps counted every acquisition and release.
  EXPECT_EQ(counters->AggregateU64(0), 8'000u);  // lock_acquire
  EXPECT_EQ(counters->AggregateU64(3), 8'000u);  // lock_release
  EXPECT_EQ(counters->AggregateU64(2), 8'000u);  // lock_acquired
  lock.SetBlocking(false);
}

}  // namespace
}  // namespace concord
