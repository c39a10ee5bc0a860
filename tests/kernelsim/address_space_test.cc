#include "src/kernelsim/address_space.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/sync/bravo.h"
#include "src/topology/thread_context.h"

namespace concord {
namespace {

template <typename LockType>
class AddressSpaceTest : public ::testing::Test {
 protected:
  AddressSpace<LockType> aspace_;
};

using MmapSemTypes = ::testing::Types<NeutralRwLock, BravoLock<NeutralRwLock>>;
TYPED_TEST_SUITE(AddressSpaceTest, MmapSemTypes);

TYPED_TEST(AddressSpaceTest, MmapCreatesVma) {
  const std::uint64_t addr = this->aspace_.Mmap(16 * kPageSize);
  EXPECT_EQ(this->aspace_.vma_count(), 1u);
  EXPECT_TRUE(this->aspace_.HasMapping(addr));
  EXPECT_TRUE(this->aspace_.HasMapping(addr + 15 * kPageSize));
  EXPECT_FALSE(this->aspace_.HasMapping(addr + 16 * kPageSize));
}

TYPED_TEST(AddressSpaceTest, FaultInstallsPageOnce) {
  const std::uint64_t addr = this->aspace_.Mmap(4 * kPageSize);
  ASSERT_TRUE(this->aspace_.HandlePageFault(addr).ok());
  EXPECT_EQ(this->aspace_.faults_served(), 1u);
  // Second touch of the same page: no new page.
  ASSERT_TRUE(this->aspace_.HandlePageFault(addr + 100).ok());
  EXPECT_EQ(this->aspace_.faults_served(), 1u);
  // Different page faults anew.
  ASSERT_TRUE(this->aspace_.HandlePageFault(addr + kPageSize).ok());
  EXPECT_EQ(this->aspace_.faults_served(), 2u);
}

TYPED_TEST(AddressSpaceTest, FaultOutsideVmaIsSegv) {
  this->aspace_.Mmap(kPageSize);
  EXPECT_EQ(this->aspace_.HandlePageFault(0x1234).code(), StatusCode::kNotFound);
}

TYPED_TEST(AddressSpaceTest, MunmapRemovesVma) {
  const std::uint64_t addr = this->aspace_.Mmap(8 * kPageSize);
  for (std::uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(this->aspace_.HandlePageFault(addr + p * kPageSize).ok());
  }
  ASSERT_TRUE(this->aspace_.Munmap(addr).ok());
  EXPECT_EQ(this->aspace_.vma_count(), 0u);
  EXPECT_FALSE(this->aspace_.HasMapping(addr));
  EXPECT_FALSE(this->aspace_.Munmap(addr).ok());
}

TYPED_TEST(AddressSpaceTest, PageFault2CycleLikeWillItScale) {
  // One page_fault2 iteration: mmap, touch every page, munmap.
  constexpr std::uint64_t kPages = 64;
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t addr = this->aspace_.Mmap(kPages * kPageSize);
    for (std::uint64_t p = 0; p < kPages; ++p) {
      ASSERT_TRUE(this->aspace_.HandlePageFault(addr + p * kPageSize).ok());
    }
    ASSERT_TRUE(this->aspace_.Munmap(addr).ok());
  }
  EXPECT_EQ(this->aspace_.faults_served(), 3 * kPages);
}

TYPED_TEST(AddressSpaceTest, ConcurrentFaultersOnSharedVma) {
  constexpr std::uint64_t kPages = 512;
  const std::uint64_t addr = this->aspace_.Mmap(kPages * kPageSize);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, addr] {
      for (std::uint64_t p = 0; p < kPages; ++p) {
        ASSERT_TRUE(this->aspace_.HandlePageFault(addr + p * kPageSize).ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Every page installed exactly once despite racing faulters.
  EXPECT_EQ(this->aspace_.faults_served(), kPages);
}

TYPED_TEST(AddressSpaceTest, FaultCountStaysExactAcrossVcpuLanes) {
  // Installed pages are counted per vCPU lane. Three threads fault every page
  // of one VMA in step, so they race to install each page and the losers
  // count nothing; then each faults a VMA of its own. The threads run once
  // on different vCPUs (two of them sharing a lane) and once on one vCPU.
  constexpr int kThreads = 3;
  constexpr std::uint64_t kSharedPages = 128;
  constexpr std::uint64_t kOwnPages = 16;
  constexpr std::uint32_t kLanes = AddressSpace<TypeParam>::kFaultLanes;
  const std::uint32_t placements[2][kThreads] = {{1, 2, 1 + kLanes}, {5, 5, 5}};
  std::uint64_t expected = 0;
  for (const auto& vcpus : placements) {
    const std::uint64_t shared = this->aspace_.Mmap(kSharedPages * kPageSize);
    std::atomic<std::uint64_t> arrived{0};
    std::vector<std::thread> threads;
    for (std::uint32_t vcpu : vcpus) {
      threads.emplace_back([this, vcpu, shared, &arrived] {
        ThreadRegistry::Global().RegisterCurrent(vcpu);
        for (std::uint64_t p = 0; p < kSharedPages; ++p) {
          // A spin barrier per page, so the threads fault it together.
          arrived.fetch_add(1);
          while (arrived.load() < (p + 1) * kThreads) {
            std::this_thread::yield();
          }
          EXPECT_TRUE(this->aspace_.HandlePageFault(shared + p * kPageSize).ok());
        }
        const std::uint64_t own = this->aspace_.Mmap(kOwnPages * kPageSize);
        for (std::uint64_t p = 0; p < kOwnPages; ++p) {
          EXPECT_TRUE(this->aspace_.HandlePageFault(own + p * kPageSize).ok());
        }
        EXPECT_TRUE(this->aspace_.Munmap(own).ok());
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    expected += kSharedPages + kThreads * kOwnPages;
    EXPECT_EQ(this->aspace_.faults_served(), expected);
    ASSERT_TRUE(this->aspace_.Munmap(shared).ok());
  }
}

TYPED_TEST(AddressSpaceTest, ConcurrentMmapMunmapAndFaults) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this] {
      for (int i = 0; i < 50; ++i) {
        const std::uint64_t addr = this->aspace_.Mmap(16 * kPageSize);
        for (std::uint64_t p = 0; p < 16; ++p) {
          ASSERT_TRUE(this->aspace_.HandlePageFault(addr + p * kPageSize).ok());
        }
        ASSERT_TRUE(this->aspace_.Munmap(addr).ok());
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(this->aspace_.vma_count(), 0u);
}

}  // namespace
}  // namespace concord
