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
    for (auto& slot : visible_) {
      CONCORD_CHECK(slot->load(std::memory_order_relaxed) == 0);
    }
  }

  void ReadLock() {
    hooks_.Tap(&HookTable::lock_acquire);
    const std::uint32_t mode = CurrentMode();
    if (mode == static_cast<std::uint32_t>(RwMode::kWriterOnly)) {
      underlying_.WriteLock();
      PushToken(kTokenWriterOnly);
      hooks_.Tap(&HookTable::lock_acquired);
      return;
    }
    const bool reader_bias =
        mode == static_cast<std::uint32_t>(RwMode::kReaderBias);
    if (reader_bias && bias_.load(std::memory_order_acquire) != 0) {
      const std::uint64_t index = SlotIndexFor(Self().task_id);
      std::atomic<std::uint32_t>& slot = *visible_[index];
      std::uint32_t expected = 0;
      if (slot.compare_exchange_strong(expected, 1, std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        // Publish-then-recheck: a racing writer either sees our slot or we
        // see the cleared bias. This is the store-buffering pattern against
        // Revoke's bias store and slot scan, so all four accesses are
        // seq_cst: with acquire/release alone the model lets both sides miss
        // each other and a fast-path reader run beside the writer.
        if (bias_.load(std::memory_order_seq_cst) != 0) {
          PushToken(index);
          fast_reads_.fetch_add(1, std::memory_order_relaxed);
          hooks_.Tap(&HookTable::lock_acquired);
          return;
        }
        slot.store(0, std::memory_order_release);
      }
    }
    underlying_.ReadLock();
    if (reader_bias) {
      MaybeReenableBias();  // under the read lock, so no writer is inside
    }
    PushToken(kTokenUnderlying);
    slow_reads_.fetch_add(1, std::memory_order_relaxed);
    hooks_.Tap(&HookTable::lock_acquired);
  }

  void ReadUnlock() {
    hooks_.Tap(&HookTable::lock_release);
    const std::uint64_t token = PopToken();
    if (token == kTokenUnderlying) {
      underlying_.ReadUnlock();
      return;
    }
    if (token == kTokenWriterOnly) {
      underlying_.WriteUnlock();
      return;
    }
    visible_[token]->store(0, std::memory_order_release);
  }

  void WriteLock() {
    hooks_.Tap(&HookTable::lock_acquire);
    underlying_.WriteLock();
    if (bias_.load(std::memory_order_acquire) != 0) {
      Revoke();
    }
    hooks_.Tap(&HookTable::lock_acquired);
  }

  void WriteUnlock() {
    hooks_.Tap(&HookTable::lock_release);
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
  std::uint64_t fast_reads() const {
    return fast_reads_.load(std::memory_order_relaxed);
  }
  std::uint64_t slow_reads() const {
    return slow_reads_.load(std::memory_order_relaxed);
  }
  std::uint64_t revocations() const {
    return revocations_.load(std::memory_order_relaxed);
  }
  bool bias_active() const { return bias_.load(std::memory_order_relaxed) != 0; }

  Underlying& underlying() { return underlying_; }

 private:
  static constexpr std::uint64_t kTokenUnderlying = ~0ull;
  static constexpr std::uint64_t kTokenWriterOnly = ~0ull - 1;
  static constexpr int kMaxNestedReads = 16;

  struct TokenStack {
    std::uint64_t tokens[kMaxNestedReads];
    int depth = 0;
  };

  static TokenStack& Tokens() {
    thread_local TokenStack stack;
    return stack;
  }

  void PushToken(std::uint64_t token) {
    TokenStack& stack = Tokens();
    CONCORD_CHECK(stack.depth < kMaxNestedReads);
    stack.tokens[stack.depth++] = token;
  }

  std::uint64_t PopToken() {
    TokenStack& stack = Tokens();
    CONCORD_CHECK(stack.depth > 0);
    return stack.tokens[--stack.depth];
  }

  std::uint32_t CurrentMode() const {
    std::uint32_t mode = default_mode_.load(std::memory_order_relaxed);
    hooks_.Read(HookSite::kRwMode, [&](const HookTable& hooks) {
      if (hooks.rw_mode != nullptr) {
        mode = hooks.rw_mode(hooks.user_data);
      }
    });
    return mode;
  }

  static std::uint64_t SlotIndexFor(std::uint32_t task_id) {
    // Mix the task id so consecutive ids do not collide in one stripe.
    const std::uint64_t h = task_id * 0x9e3779b97f4a7c15ull;
    return (h >> 32) % kTableSlots;
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
    for (auto& slot : visible_) {
      SpinWait spin;
      while (slot->load(std::memory_order_seq_cst) != 0) {
        spin.Once();
      }
    }
    const std::uint64_t cost = MonotonicNowNs() - start;
    inhibit_until_.store(MonotonicNowNs() + cost * kInhibitMultiplier,
                         std::memory_order_relaxed);
    revocations_.fetch_add(1, std::memory_order_relaxed);
  }

  // The wrapped lock: taken by slow-path readers and by every writer.
  Underlying underlying_;
  // Visible readers: each fast-path reader writes its own slot; a revoking
  // writer reads them all.
  CacheLinePadded<std::atomic<std::uint32_t>> visible_[kTableSlots];

  // Read by every reader. The bias is written by revoking writers and by
  // slow-path readers re-arming it, the rest by the control plane.
  CONCORD_CACHE_ALIGNED std::atomic<std::uint32_t> bias_{1};
  std::atomic<std::uint64_t> inhibit_until_{0};
  HookSite hooks_;
  std::atomic<std::uint32_t> default_mode_{
      static_cast<std::uint32_t>(RwMode::kNeutral)};

  // Statistics: the read counts are written by every reader, revocations_ by
  // revoking writers. Their own line, so counting a read does not invalidate
  // the line above for the other readers.
  CONCORD_CACHE_ALIGNED std::atomic<std::uint64_t> fast_reads_{0};
  std::atomic<std::uint64_t> slow_reads_{0};
  std::atomic<std::uint64_t> revocations_{0};
};

}  // namespace concord

#endif  // SRC_SYNC_BRAVO_H_
