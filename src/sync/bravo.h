// BRAVO — Biased Locking for Reader-Writer Locks (Dice & Kogan, ATC '19),
// with Concord policy hooks.
//
// BRAVO wraps any readers-writer lock. While reader bias is on, readers skip
// the underlying lock entirely: they publish themselves in a visible-readers
// table (one CAS on a (likely) uncontended slot) and re-check the bias flag.
// A writer revokes the bias — clears the flag, scans the whole table waiting
// for published readers to drain — then takes the underlying write lock.
// Revocation is expensive, so bias re-enables only after an adaptive inhibit
// window proportional to the last revocation's cost, and only from a reader
// on the slow path that already holds the underlying read lock: no writer
// can be inside then, and the next writer sees the bias and revokes it. A
// fresh lock starts biased for the same reason (no writer has run yet).
//
// Concord integration: the installed HookTable's rw_mode() decides per
// acquisition which regime the lock runs in — kNeutral (bias off),
// kReaderBias (BRAVO fast path) or kWriterOnly (readers take the write path;
// right for create-heavy directory workloads, §3.1.1(i)). This is the paper's
// Figure 2(a) "Concord-BRAVO": the same switch the precompiled BRAVO makes,
// but decided by a user-installed (possibly BPF) policy at runtime.
//
// Statistics: every read acquisition is counted once, as a fast read (the
// BRAVO fast path) or a slow read (the underlying read lock, or its write
// lock in writer-only mode), in the line of the reader's visible-readers
// slot. No reader writes a counter line that a reader hashing elsewhere
// writes, so counting keeps readers off shared lines as the table does.

#ifndef SRC_SYNC_BRAVO_H_
#define SRC_SYNC_BRAVO_H_

#include <atomic>
#include <cstdint>

#include "src/base/cacheline.h"
#include "src/base/check.h"
#include "src/base/spinwait.h"
#include "src/base/time.h"
#include "src/sync/lock.h"
#include "src/sync/policy_hooks.h"
#include "src/sync/rw_lock.h"
#include "src/topology/thread_context.h"

namespace concord {

template <SharedLockable Underlying = NeutralRwLock>
class BravoLock {
 public:
  static constexpr std::uint32_t kTableSlots = 256;
  // Inhibit window = revocation cost * this multiplier (BRAVO's "N").
  static constexpr std::uint64_t kInhibitMultiplier = 9;

  BravoLock() = default;
  BravoLock(const BravoLock&) = delete;
  BravoLock& operator=(const BravoLock&) = delete;

  ~BravoLock() {
    for (const ReaderSlot& slot : visible_) {
      CONCORD_CHECK(slot.held.load(std::memory_order_relaxed) == 0);
    }
  }

  void ReadLock() {
    hooks_.Tap(&HookTable::lock_acquire);
    const std::uint32_t mode = CurrentMode();
    TokenStack& stack = Tokens();
    ReaderSlot& slot = visible_[stack.slot];
    if (mode == static_cast<std::uint32_t>(RwMode::kWriterOnly)) {
      underlying_.WriteLock();
      slot.slow_reads.fetch_add(1, std::memory_order_relaxed);
      ReadAcquired(stack, kTokenWriterOnly);
      return;
    }
    const bool reader_bias =
        mode == static_cast<std::uint32_t>(RwMode::kReaderBias);
    if (reader_bias && bias_.load(std::memory_order_acquire) != 0) {
      std::uint32_t expected = 0;
      if (slot.held.compare_exchange_strong(expected, 1,
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
        // Publish-then-recheck: a racing writer either sees our slot or we
        // see the cleared bias. This is the store-buffering pattern against
        // Revoke's bias store and slot scan, so all four accesses are
        // seq_cst: with acquire/release alone the model lets both sides miss
        // each other and a fast-path reader run beside the writer.
        if (bias_.load(std::memory_order_seq_cst) != 0) {
          slot.fast_reads.store(
              slot.fast_reads.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
          ReadAcquired(stack, stack.slot);
          return;
        }
        slot.held.store(0, std::memory_order_release);
      }
    }
    underlying_.ReadLock();
    if (reader_bias) {
      MaybeReenableBias();  // under the read lock, so no writer is inside
    }
    slot.slow_reads.fetch_add(1, std::memory_order_relaxed);
    ReadAcquired(stack, kTokenUnderlying);
  }

  void ReadUnlock() {
    std::uint64_t acquired_ns = 0;
    const std::uint64_t token = PopToken(acquired_ns);
    Released(acquired_ns);
    if (token == kTokenUnderlying) {
      underlying_.ReadUnlock();
      return;
    }
    if (token == kTokenWriterOnly) {
      underlying_.WriteUnlock();
      return;
    }
    visible_[token].held.store(0, std::memory_order_release);
  }

  void WriteLock() {
    hooks_.Tap(&HookTable::lock_acquire);
    underlying_.WriteLock();
    if (bias_.load(std::memory_order_acquire) != 0) {
      Revoke();
    }
    const std::uint32_t mask = hooks_.mask();
    const std::uint64_t acquired_ns = StampIfTimed(mask);
    if (acquired_ns != 0) {
      writer_acquired_ns_ = acquired_ns;
    }
    hooks_.Tap(mask, &HookTable::lock_acquired,
               TapStamps{0, acquired_ns, 0, false});
  }

  void WriteUnlock() {
    // Stored only by a timed writer, so an untimed pair stores nothing.
    const std::uint64_t acquired_ns = writer_acquired_ns_;
    if (acquired_ns != 0) {
      writer_acquired_ns_ = 0;
    }
    Released(acquired_ns);
    underlying_.WriteUnlock();
  }

  // --- Concord integration -------------------------------------------------

  // Where Concord publishes hook tables and the registry id (see HookSite).
  HookSite& hook_site() { return hooks_; }
  const HookSite& hook_site() const { return hooks_; }

  // Fixed mode used when no policy is installed.
  void SetDefaultMode(RwMode mode) {
    default_mode_.store(static_cast<std::uint32_t>(mode),
                        std::memory_order_relaxed);
  }

  // --- introspection ---------------------------------------------------------
  // Sums over the visible-readers lines; exact once the counted reads have
  // returned.
  std::uint64_t fast_reads() const { return SumReads(&ReaderSlot::fast_reads); }
  std::uint64_t slow_reads() const { return SumReads(&ReaderSlot::slow_reads); }
  std::uint64_t revocations() const {
    return revocations_.load(std::memory_order_relaxed);
  }
  bool bias_active() const { return bias_.load(std::memory_order_relaxed) != 0; }

  Underlying& underlying() { return underlying_; }

  // The visible-readers slot of the thread with `task_id`. Mixes the id so
  // consecutive ids do not collide in one stripe.
  static std::uint32_t SlotIndexFor(std::uint32_t task_id) {
    const std::uint64_t h = task_id * 0x9e3779b97f4a7c15ull;
    return static_cast<std::uint32_t>((h >> 32) % kTableSlots);
  }

 private:
  // A read's token: its visible-readers slot, or one of the two values
  // below, with kTokenTimed set when the read was timed.
  static constexpr std::uint64_t kTokenUnderlying = kTableSlots;
  static constexpr std::uint64_t kTokenWriterOnly = kTableSlots + 1;
  static constexpr std::uint64_t kTokenTimed = 1ull << 32;
  static constexpr int kMaxNestedReads = 16;

  // One visible-readers slot and the read counts of the threads that hash to
  // it, on a line of its own.
  struct CONCORD_CACHE_ALIGNED ReaderSlot {
    // 1 while a fast-path reader holds the slot; a revoking writer scans it.
    std::atomic<std::uint32_t> held{0};
    // Written only by the slot's holder, with a relaxed load and store. The
    // CAS that takes the slot acquires the release store that freed it, so
    // each holder sees the previous holder's count.
    std::atomic<std::uint64_t> fast_reads{0};
    // Relaxed RMWs by the slow-path and writer-only reads of the threads
    // that hash here.
    std::atomic<std::uint64_t> slow_reads{0};
  };

  // The calling thread's reads in progress, LIFO, and its visible-readers
  // slot. A timed read keeps its acquired stamp beside its token, so a
  // nested read's release pairs with its own acquisition.
  struct TokenStack {
    std::uint64_t tokens[kMaxNestedReads];
    std::uint64_t acquired_ns[kMaxNestedReads];  // written for timed reads
    int depth = 0;
    // Set once per thread: a task id is fixed once the thread is registered.
    std::uint32_t slot = SlotIndexFor(Self().task_id);
  };

  static TokenStack& Tokens() {
    thread_local TokenStack stack;
    return stack;
  }

  static void PushToken(TokenStack& stack, std::uint64_t token,
                        std::uint64_t acquired_ns) {
    CONCORD_CHECK(stack.depth < kMaxNestedReads);
    if (acquired_ns != 0) {
      stack.acquired_ns[stack.depth] = acquired_ns;
      token |= kTokenTimed;
    }
    stack.tokens[stack.depth++] = token;
  }

  // Pops the newest read's token; sets `acquired_ns` if it was timed.
  std::uint64_t PopToken(std::uint64_t& acquired_ns) {
    TokenStack& stack = Tokens();
    CONCORD_CHECK(stack.depth > 0);
    const std::uint64_t token = stack.tokens[--stack.depth];
    if ((token & kTokenTimed) != 0) {
      acquired_ns = stack.acquired_ns[stack.depth];
    }
    return token & ~kTokenTimed;
  }

  // The acquired stamp of an acquisition that holds the lock now, or 0 if
  // it is untimed. Nothing of this lock queues, so the timing decision is
  // taken here, with the mask the acquired tap reads, and an acquisition is
  // stamped at acquired and release only.
  static std::uint64_t StampIfTimed(std::uint32_t mask) {
    return HookSite::TimeAcquisition(mask) ? MonotonicNowNs() : 0;
  }

  // A read is held: stamps it if timed, records its token and fires
  // lock_acquired.
  void ReadAcquired(TokenStack& stack, std::uint64_t token) {
    const std::uint32_t mask = hooks_.mask();
    const std::uint64_t acquired_ns = StampIfTimed(mask);
    PushToken(stack, token, acquired_ns);
    hooks_.Tap(mask, &HookTable::lock_acquired,
               TapStamps{0, acquired_ns, 0, false});
  }

  // Fires lock_release, stamped if the acquisition was timed, while the
  // lock is still held.
  void Released(std::uint64_t acquired_ns) {
    const std::uint64_t release_ns = acquired_ns != 0 ? MonotonicNowNs() : 0;
    hooks_.Tap(&HookTable::lock_release,
               TapStamps{0, acquired_ns, release_ns, false});
  }

  std::uint32_t CurrentMode() {
    return hooks_.RwMode(default_mode_.load(std::memory_order_relaxed));
  }

  std::uint64_t SumReads(std::atomic<std::uint64_t> ReaderSlot::*count) const {
    std::uint64_t sum = 0;
    for (const ReaderSlot& slot : visible_) {
      sum += (slot.*count).load(std::memory_order_relaxed);
    }
    return sum;
  }

  void MaybeReenableBias() {
    if (bias_.load(std::memory_order_relaxed) != 0) {
      return;
    }
    if (MonotonicNowNs() >= inhibit_until_.load(std::memory_order_relaxed)) {
      bias_.store(1, std::memory_order_release);
    }
  }

  void Revoke() {
    const std::uint64_t start = MonotonicNowNs();
    bias_.store(0, std::memory_order_seq_cst);
    for (const ReaderSlot& slot : visible_) {
      SpinWait spin;
      while (slot.held.load(std::memory_order_seq_cst) != 0) {
        spin.Once();
      }
    }
    const std::uint64_t cost = MonotonicNowNs() - start;
    inhibit_until_.store(MonotonicNowNs() + cost * kInhibitMultiplier,
                         std::memory_order_relaxed);
    revocations_.store(revocations_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  }

  // The wrapped lock: taken by slow-path readers and by every writer.
  Underlying underlying_;
  // The write holder's acquired stamp when its acquisition is timed, else 0.
  // Written and read only under the underlying write lock.
  std::uint64_t writer_acquired_ns_ = 0;
  // Visible readers and the read counts: a reader writes only the line of
  // its own slot; a revoking writer reads every slot.
  ReaderSlot visible_[kTableSlots];

  // Read by every reader. The bias is written by revoking writers and by
  // slow-path readers re-arming it, inhibit_until_ and revocations_ by
  // revoking writers only (under the underlying write lock, so
  // revocations_ takes a relaxed load and store), the rest by the control
  // plane.
  CONCORD_CACHE_ALIGNED std::atomic<std::uint32_t> bias_{1};
  std::atomic<std::uint64_t> inhibit_until_{0};
  HookSite hooks_;
  std::atomic<std::uint32_t> default_mode_{
      static_cast<std::uint32_t>(RwMode::kNeutral)};
  std::atomic<std::uint64_t> revocations_{0};
};

}  // namespace concord

#endif  // SRC_SYNC_BRAVO_H_
