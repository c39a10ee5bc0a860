// ShflLock — queue lock with policy-driven waiter shuffling (SOSP '19).
//
// Structure: a test-and-set lock word guarded by an MCS-style waiter queue.
// The waiter at the head of the queue spins on the lock word; everyone else
// spins (or parks) on their own queue node. While the head waits — i.e. off
// the critical path — it acts as the *shuffler*: it walks the queue and pulls
// waiters matching the installed policy's cmp_node() into a group right
// behind itself, so lock handoffs within a group are cheap (e.g. same-socket
// handoffs under a NUMA policy).
//
// This implementation deviates from the SOSP version in ways that simplify
// userspace operation without changing the policy mechanism:
//   - lock stealing off the fast path is permitted only while the queue is
//     empty (bounded unfairness, deterministic tests);
//   - the shuffler is always the queue head (the paper also delegates the
//     role down the queue);
//   - blocking (spin-then-park) is a runtime property, not a compile-time
//     variant, so a policy can switch a lock between the rwlock-style
//     non-blocking and rwsem-style blocking regimes on the fly (§3.1.1).
//
// Safety guarantees kept regardless of installed policy (§4.2):
//   - mutual exclusion and handoff liveness do not depend on policy output:
//     cmp_node/skip_shuffle only influence queue order;
//   - shuffling rounds are bounded by min(policy bound, kShuffleRoundCap);
//   - each *waiter* can be overtaken at most min(policy bound, kBypassCap)
//     times; a saturated waiter freezes further reordering behind it;
//   - queue integrity is CHECKed after every shuffle round (node count across
//     the shuffled window must be preserved).

#ifndef SRC_SYNC_SHFLLOCK_H_
#define SRC_SYNC_SHFLLOCK_H_

#include <atomic>
#include <cstdint>

#include "src/base/cacheline.h"
#include "src/sync/policy_hooks.h"
#include "src/topology/thread_context.h"

namespace concord {

struct CONCORD_CACHE_ALIGNED ShflQNode {
  enum Status : std::uint32_t {
    kWaiting = 0,
    kParked = 1,
    kHead = 2,
  };

  std::atomic<ShflQNode*> next{nullptr};
  std::atomic<std::uint32_t> status{kWaiting};
  ThreadContext* ctx = nullptr;
  std::uint64_t enqueue_ns = 0;
  // Times this waiter has been overtaken by shuffle moves. Written only by
  // the (single) shuffler; read by the shuffler's starvation bound.
  std::uint32_t bypassed = 0;
};

class ShflLock {
 public:
  // Hard cap on shuffle rounds per head tenure, regardless of policy.
  static constexpr std::uint32_t kShuffleRoundCap = 1024;
  // Maximum nodes examined per shuffle round.
  static constexpr std::uint32_t kMaxShuffleScan = 128;
  // Hard cap on how often one waiter may be overtaken, regardless of policy.
  static constexpr std::uint32_t kBypassCap = 4096;

  ShflLock() = default;
  ~ShflLock();
  ShflLock(const ShflLock&) = delete;
  ShflLock& operator=(const ShflLock&) = delete;

  void Lock();
  void Unlock();
  // TryLock succeeds only when the lock is free AND unqueued. A successful
  // TryLock is a fast-path acquisition to every hook, timing and trace event
  // (lock_acquire, then lock_acquired, then lock_release at Unlock), so the
  // profiler counts it; a failed one fires nothing.
  bool TryLock();

  // --- Concord integration -------------------------------------------------

  // Where Concord publishes hook tables and the registry id (see HookSite).
  // With no table installed the lock is plain FIFO.
  HookSite& hook_site() { return hooks_; }
  const HookSite& hook_site() const { return hooks_; }

  // Blocking regime: when true, waiters park after their spin budget.
  void SetBlocking(bool blocking) {
    blocking_.store(blocking ? 1 : 0, std::memory_order_relaxed);
  }
  bool blocking() const { return blocking_.load(std::memory_order_relaxed) != 0; }

  // --- introspection (tests, safety monitors, profiler) --------------------
  std::uint64_t acquisitions() const {
    return acquisitions_.load(std::memory_order_relaxed);
  }
  std::uint64_t shuffle_rounds() const {
    return shuffle_rounds_.load(std::memory_order_relaxed);
  }
  std::uint64_t shuffle_moves() const {
    return shuffle_moves_.load(std::memory_order_relaxed);
  }
  std::uint64_t parks() const { return parks_.load(std::memory_order_relaxed); }
  std::uint64_t bypass_freezes() const {
    return bypass_freezes_.load(std::memory_order_relaxed);
  }

 private:
  static ShflWaiterView MakeView(const ShflQNode& node, std::uint64_t now_ns);

  // Acquires the TAS word; returns true on success.
  bool TryAcquireWord() {
    std::uint32_t expected = 0;
    return locked_.compare_exchange_strong(expected, 1, std::memory_order_acquire,
                                           std::memory_order_relaxed);
  }

  void SlowLock(ShflQNode& node);

  // Holder bookkeeping once the lock word is won; only the new holder runs it.
  void RecordAcquired(ThreadContext& ctx, std::uint64_t acquire_ns);

  // Lock()'s end, once the word is won: stamps a timed acquisition's
  // acquired time into `stamps`, records the holder and fires lock_acquired.
  void Acquired(ThreadContext& ctx, bool timed, TapStamps stamps);

  // Unlock()'s end, once the word is free (`prev` is its old value): wakes a
  // parked head and fires lock_release with `stamps`. A timed acquisition
  // first stamps its release and feeds the hold into the holder's EWMA; that
  // path is a function of its own, so the untimed one saves no registers
  // for it.
  void Released(std::uint32_t prev, TapStamps stamps);
  [[gnu::noinline]] void ReleasedTimed(ThreadContext& holder,
                                       std::uint64_t acquired_ns,
                                       std::uint32_t prev);

  // One shuffle round; only the queue head calls this. Returns the number of
  // waiters moved.
  std::uint32_t ShuffleRound(ShflQNode& head, const HookTable& hooks);

  // Promotes `node` to queue head, waking it if parked. Non-static only for
  // the flight-recorder tap (needs the lock id); touches no other lock state.
  void PromoteToHead(ShflQNode& node);

  // Spins/parks until this node becomes the queue head.
  void WaitUntilHead(ShflQNode& node);

  // Each group below sits on its own cache line, so a write to one never
  // invalidates a line another role is reading or spinning on. A
  // single-writer counter is updated with a relaxed load and store instead of
  // a locked RMW; it stays atomic so readers on other threads are race-free.

  // Lock word: every acquirer and the holder's release.
  CONCORD_CACHE_ALIGNED std::atomic<std::uint32_t> locked_{0};
  // Queue tail: every enqueuer exchanges it.
  CONCORD_CACHE_ALIGNED std::atomic<ShflQNode*> tail_{nullptr};

  // Read-mostly config: written by the control plane, read on every path.
  CONCORD_CACHE_ALIGNED HookSite hooks_;
  std::atomic<std::uint32_t> blocking_{0};

  // Holder-only: written by the thread holding the lock.
  CONCORD_CACHE_ALIGNED std::uint64_t holder_acquire_ns_ = 0;
  ThreadContext* holder_ctx_ = nullptr;
  std::atomic<std::uint64_t> acquisitions_{0};

  // Waiter-side statistics: the rounds, moves and freezes are written only by
  // the queue head; parks_ by any waiter, so it stays an RMW.
  CONCORD_CACHE_ALIGNED std::atomic<std::uint64_t> shuffle_rounds_{0};
  std::atomic<std::uint64_t> shuffle_moves_{0};
  std::atomic<std::uint64_t> bypass_freezes_{0};
  std::atomic<std::uint64_t> parks_{0};
};

// RAII guard.
class ShflGuard {
 public:
  explicit ShflGuard(ShflLock& lock) : lock_(lock) { lock_.Lock(); }
  ~ShflGuard() { lock_.Unlock(); }
  ShflGuard(const ShflGuard&) = delete;
  ShflGuard& operator=(const ShflGuard&) = delete;

 private:
  ShflLock& lock_;
};

}  // namespace concord

#endif  // SRC_SYNC_SHFLLOCK_H_
