// Mini virtual-memory subsystem — the substrate for the paper's Figure 2(a)
// `page_fault2` workload.
//
// A real page_fault2 iteration mmaps anonymous memory, stores to every page
// (each store faults: mmap_sem is read-locked, the VMA is found, a zeroed
// page is installed) and munmaps (mmap_sem write-locked). This class models
// exactly the lock-relevant structure: an interval tree of VMAs guarded by a
// readers-writer "mmap_sem", a per-VMA page array, and page installation
// that does the real work (allocate + zero 4 KiB) so the read-side critical
// path has kernel-realistic weight.
//
// The lock type is a template parameter: NeutralRwLock = "Stock",
// BravoLock<...> = "BRAVO", BravoLock with a Concord rw_mode policy =
// "Concord-BRAVO".

#ifndef SRC_KERNELSIM_ADDRESS_SPACE_H_
#define SRC_KERNELSIM_ADDRESS_SPACE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "src/base/cacheline.h"
#include "src/base/check.h"
#include "src/base/status.h"
#include "src/sync/lock.h"
#include "src/sync/rw_lock.h"
#include "src/topology/thread_context.h"

namespace concord {

inline constexpr std::uint64_t kPageSize = 4096;

template <SharedLockable MmapSem = NeutralRwLock>
class AddressSpace {
 public:
  // Installed pages are counted per vCPU lane, as the kernel counts faults
  // per CPU (count_vm_event), so faulting threads write no shared line
  // besides mmap_sem's.
  static constexpr std::uint32_t kFaultLanes = 16;

  AddressSpace() = default;
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  MmapSem& mmap_sem() { return mmap_sem_; }

  // Maps `length` bytes (rounded up to pages) of anonymous memory; returns
  // the start address. Takes mmap_sem for writing.
  std::uint64_t Mmap(std::uint64_t length) {
    const std::uint64_t pages = (length + kPageSize - 1) / kPageSize;
    WriteGuard<MmapSem> guard(mmap_sem_);
    const std::uint64_t start = next_addr_;
    next_addr_ += pages * kPageSize + kPageSize;  // guard gap
    auto vma = std::make_unique<Vma>();
    vma->start = start;
    vma->num_pages = pages;
    vma->pages = std::make_unique<std::atomic<std::uint8_t*>[]>(pages);
    vmas_[start] = std::move(vma);
    return start;
  }

  // Unmaps the VMA starting at `addr`. Takes mmap_sem for writing and frees
  // every installed page.
  Status Munmap(std::uint64_t addr) {
    std::unique_ptr<Vma> doomed;
    {
      WriteGuard<MmapSem> guard(mmap_sem_);
      auto it = vmas_.find(addr);
      if (it == vmas_.end()) {
        return InvalidArgumentError("munmap: no VMA at address");
      }
      doomed = std::move(it->second);
      vmas_.erase(it);
    }
    // Page teardown happens outside the lock, as in the kernel's unmap path
    // after the VMA is detached.
    for (std::uint64_t i = 0; i < doomed->num_pages; ++i) {
      delete[] doomed->pages[i].exchange(nullptr, std::memory_order_acq_rel);
    }
    return Status::Ok();
  }

  // Handles a store to `addr`: read-locks mmap_sem, resolves the VMA and
  // installs a zeroed page if none is present (first touch). Returns
  // kNotFound for addresses outside any VMA (a "SIGSEGV").
  Status HandlePageFault(std::uint64_t addr) {
    ReadGuard<MmapSem> guard(mmap_sem_);
    Vma* vma = FindVmaLocked(addr);
    if (vma == nullptr) {
      return NotFoundError("page fault outside any VMA");
    }
    const std::uint64_t index = (addr - vma->start) / kPageSize;
    std::atomic<std::uint8_t*>& slot = vma->pages[index];
    if (slot.load(std::memory_order_acquire) == nullptr) {
      // Allocate + zero: the real cost of an anonymous fault.
      auto* page = new std::uint8_t[kPageSize];
      std::memset(page, 0, kPageSize);
      std::uint8_t* expected = nullptr;
      if (!slot.compare_exchange_strong(expected, page,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        delete[] page;  // lost the race; another faulting thread installed
      } else {
        // Threads on one vCPU, or on vCPUs that share a lane, add to one
        // lane, so this stays an RMW.
        fault_lanes_[Self().vcpu % kFaultLanes]->fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    // The store itself. Relaxed atomic byte store: concurrent faulters may
    // legitimately touch the same byte.
    __atomic_store_n(
        &vma->pages[index].load(std::memory_order_relaxed)[addr % kPageSize], 1,
        __ATOMIC_RELAXED);
    return Status::Ok();
  }

  // Read-only VMA lookup (e.g. /proc/pid/maps style readers).
  bool HasMapping(std::uint64_t addr) {
    ReadGuard<MmapSem> guard(mmap_sem_);
    return FindVmaLocked(addr) != nullptr;
  }

  // Pages installed, summed over the lanes; exact once the counted faults
  // have returned.
  std::uint64_t faults_served() const {
    std::uint64_t served = 0;
    for (const auto& lane : fault_lanes_) {
      served += lane->load(std::memory_order_relaxed);
    }
    return served;
  }
  std::size_t vma_count() {
    ReadGuard<MmapSem> guard(mmap_sem_);
    return vmas_.size();
  }

  ~AddressSpace() {
    for (auto& [start, vma] : vmas_) {
      for (std::uint64_t i = 0; i < vma->num_pages; ++i) {
        delete[] vma->pages[i].load(std::memory_order_relaxed);
      }
    }
  }

 private:
  struct Vma {
    std::uint64_t start = 0;
    std::uint64_t num_pages = 0;
    std::unique_ptr<std::atomic<std::uint8_t*>[]> pages;  // value-initialized
  };

  // Pre: mmap_sem held (read or write).
  Vma* FindVmaLocked(std::uint64_t addr) {
    auto it = vmas_.upper_bound(addr);
    if (it == vmas_.begin()) {
      return nullptr;
    }
    --it;
    Vma* vma = it->second.get();
    const std::uint64_t end = vma->start + vma->num_pages * kPageSize;
    return addr < end ? vma : nullptr;
  }

  MmapSem mmap_sem_;
  // Read by every fault, written only under mmap_sem's write side.
  std::map<std::uint64_t, std::unique_ptr<Vma>> vmas_;
  std::uint64_t next_addr_ = 0x7f0000000000ull;
  // Pages installed by the threads of each vCPU lane (vcpu % kFaultLanes).
  CacheLinePadded<std::atomic<std::uint64_t>> fault_lanes_[kFaultLanes];
};

}  // namespace concord

#endif  // SRC_KERNELSIM_ADDRESS_SPACE_H_
