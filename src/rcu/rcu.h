// Userspace read-copy-update (RCU), memory-barrier flavour.
//
// This is the stand-in for the kernel livepatch machinery the paper uses:
// Concord swaps a lock's policy table by publishing a new pointer and
// reclaiming the old table after a grace period, so lock slow paths never
// take a lock or reference count to read their policies.
//
// The algorithm is the classic two-phase-flip urcu-mb scheme (Desnoyers et
// al.): each reader thread keeps a counter word combining a nesting count and
// a phase bit snapshot; writers flip the global phase and wait, twice, until
// every active reader is observed on the new phase.
//
// Memory ordering. The read side pays one full fence per outermost section:
//   - ReadLock publishes its snapshot with a seq_cst store (xchg on x86).
//     That is the store->load (Dekker) edge: the slot store must be visible
//     before the section's loads of RCU pointers, or a writer could swap a
//     pointer, flip the phase and scan the slot as idle while this reader
//     still goes on to load the old pointer.
//   - ReadUnlock is a release store (a plain mov on x86). The writer reads
//     every slot with seq_cst loads, so a writer that sees a section end
//     also sees every access made inside it; nothing after the unlock needs
//     ordering against the writer. Nested ReadLock increments are release
//     stores too, so every slot value a writer can read carries that edge.
// The writer side (phase flips, slot scan) is all seq_cst.
//
// A membarrier flavour (urcu "memb": compiler barriers on the read side,
// membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) in Synchronize) was measured
// and deferred. On a 4-vCPU VM with other threads busy one expedited
// membarrier cost about 4 us, the control plane's Synchronize went from
// 0.98 to 8.3 us under load, and attach latency on a contended lock rose
// 17-29%, while page-fault throughput gained only a further 10% over this
// scheme.

#ifndef SRC_RCU_RCU_H_
#define SRC_RCU_RCU_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/base/cacheline.h"

namespace concord {

class Rcu {
 public:
  static constexpr std::uint32_t kMaxThreads = 4096;

  static Rcu& Global();

  // Marks the calling thread as inside an RCU read-side critical section.
  // Re-entrant (nesting supported). Never blocks.
  void ReadLock();
  void ReadUnlock();

  // True iff the calling thread is inside a read-side section. Used by
  // CHECKs in code that must only run under RCU protection.
  bool InReadSection() const;

  // Blocks until every read-side critical section that started before this
  // call has finished. Must NOT be called from within a read-side section.
  void Synchronize();

 private:
  Rcu() = default;

  struct CONCORD_CACHE_ALIGNED ReaderSlot {
    std::atomic<std::uint64_t> ctr{0};
  };

  static constexpr std::uint64_t kNestMask = 0xffffull;
  static constexpr std::uint64_t kPhase = 1ull << 16;

  // Waits until no reader is active on the phase opposite to gp_ctr_.
  void WaitForReaders();

  std::atomic<std::uint64_t> gp_ctr_{1};  // low bits form a non-zero nest seed
  std::atomic<std::uint32_t> next_slot_{0};
  ReaderSlot slots_[kMaxThreads];

  std::mutex writer_mu_;
};

// RAII read-side critical section.
class RcuReadGuard {
 public:
  RcuReadGuard() { Rcu::Global().ReadLock(); }
  ~RcuReadGuard() { Rcu::Global().ReadUnlock(); }

  RcuReadGuard(const RcuReadGuard&) = delete;
  RcuReadGuard& operator=(const RcuReadGuard&) = delete;
};

// An RCU-protected pointer. Readers call Read() under an RcuReadGuard;
// writers call Swap() and dispose of the old value after a grace period.
template <typename T>
class RcuPointer {
 public:
  explicit RcuPointer(T* initial = nullptr) : ptr_(initial) {}

  // Caller must hold an RCU read guard for the returned pointer to remain
  // valid after the call.
  T* Read() const { return ptr_.load(std::memory_order_acquire); }

  T* Swap(T* replacement) {
    return ptr_.exchange(replacement, std::memory_order_acq_rel);
  }

 private:
  std::atomic<T*> ptr_;
};

}  // namespace concord

#endif  // SRC_RCU_RCU_H_
