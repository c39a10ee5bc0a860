#include "src/sync/shfllock.h"

#include <type_traits>

#include "src/base/check.h"
#include "src/base/spinwait.h"
#include "src/base/time.h"
#include "src/base/trace.h"
#include "src/sync/parking_lot.h"

namespace concord {
namespace {

// Adds to a counter that only one thread at a time writes (the holder, the
// queue head, or the owning thread): a relaxed load and store instead of a
// locked RMW. The previous writer's stores are ordered before ours by the
// lock word or the head hand-off.
template <typename T>
inline void SingleWriterAdd(std::atomic<T>& counter,
                            std::type_identity_t<T> delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

}  // namespace

ShflLock::~ShflLock() {
  CONCORD_CHECK(tail_.load(std::memory_order_relaxed) == nullptr);
  CONCORD_CHECK(locked_.load(std::memory_order_relaxed) == 0);
}

ShflWaiterView ShflLock::MakeView(const ShflQNode& node, std::uint64_t now_ns) {
  ShflWaiterView view;
  const ThreadContext& ctx = *node.ctx;
  view.wait_ns = now_ns > node.enqueue_ns ? now_ns - node.enqueue_ns : 0;
  view.cs_ewma_ns = ctx.cs_length_ewma_ns.load(std::memory_order_relaxed);
  view.socket = ctx.socket;
  view.vcpu = ctx.vcpu;
  view.priority = ctx.priority.load(std::memory_order_relaxed);
  view.task_class = ctx.task_class.load(std::memory_order_relaxed);
  view.locks_held = ctx.locks_held.load(std::memory_order_relaxed);
  view.task_id = ctx.task_id;
  return view;
}

void ShflLock::Lock() {
  ThreadContext& ctx = Self();
  TraceRecord(hooks_.lock_id(), TraceEventKind::kAcquire);
  // Hold-time accounting (timestamps + EWMA) is policy food; it is only
  // maintained while the installed table asks for it, and a waiter is only
  // timestamped while a decision hook could read its wait time, so that an
  // unpatched lock costs no clock reads. (Enable profiling, or attach a
  // policy that needs hold accounting, to warm the per-thread CS statistics.)
  const std::uint32_t mask = hooks_.mask();
  const bool track_time = (mask & HookSite::kTrackHoldTime) != 0;
  const bool time_wait = (mask & HookSite::kWaiterDecisions) != 0;
  hooks_.Tap(&HookTable::lock_acquire);

  // Fast path: steal only while no queue exists (bounded unfairness).
  if (tail_.load(std::memory_order_relaxed) != nullptr || !TryAcquireWord()) {
    ShflQNode node;
    node.ctx = &ctx;
    node.enqueue_ns = time_wait ? MonotonicNowNs() : 0;
    SlowLock(node);
  }

  RecordAcquired(ctx, track_time ? MonotonicNowNs() : 0);
  TraceRecord(hooks_.lock_id(), TraceEventKind::kAcquired);
  hooks_.Tap(&HookTable::lock_acquired);
}

bool ShflLock::TryLock() {
  if (tail_.load(std::memory_order_relaxed) != nullptr) {
    return false;
  }
  if (!TryAcquireWord()) {
    return false;
  }
  RecordAcquired(Self(), 0);  // TryLock fires no hooks; see class comment
  return true;
}

void ShflLock::RecordAcquired(ThreadContext& ctx, std::uint64_t acquire_ns) {
  holder_acquire_ns_ = acquire_ns;
  holder_ctx_ = &ctx;
  SingleWriterAdd(ctx.locks_held, 1);
  SingleWriterAdd(acquisitions_, 1);
}

void ShflLock::SlowLock(ShflQNode& node) {
  TraceRecord(hooks_.lock_id(), TraceEventKind::kContended);
  hooks_.Tap(&HookTable::lock_contended);

  ShflQNode* pred = tail_.exchange(&node, std::memory_order_acq_rel);
  if (pred == nullptr) {
    node.status.store(ShflQNode::kHead, std::memory_order_relaxed);
  } else {
    pred->next.store(&node, std::memory_order_release);
    WaitUntilHead(node);
  }

  // We are the queue head: contend on the lock word; shuffle while waiting.
  // In blocking mode the head spins-then-parks on the lock word itself
  // (value 2 = "locked, head parked", so Unlock knows to issue a wake).
  SpinWait spin;
  std::uint32_t rounds_done = 0;
  while (!TryAcquireWord()) {
    // Default spin-then-park: park once the adaptive spinner has escalated
    // past its pure-spin phase, unless the policy's schedule_waiter decides.
    const bool blocking = blocking_.load(std::memory_order_relaxed) != 0;
    bool park_now = blocking && spin.iterations() > 128;
    const std::uint32_t consulted =
        HookSite::kCmpNode | (blocking ? HookSite::kScheduleWaiter : 0);
    hooks_.Read(consulted, [&](const HookTable& hooks) {
      if (hooks.cmp_node != nullptr) {
        const std::uint32_t bound = hooks.max_shuffle_rounds < kShuffleRoundCap
                                        ? hooks.max_shuffle_rounds
                                        : kShuffleRoundCap;
        // Pace the scans (they are pure overhead when the queue is static)
        // and charge the starvation budget only for rounds that actually
        // reordered waiters — scans that move nobody cannot starve anybody.
        if (rounds_done < bound && (spin.iterations() & 31) == 0) {
          if (ShuffleRound(node, hooks) > 0) {
            ++rounds_done;
          }
        }
      }
      if (blocking && hooks.schedule_waiter != nullptr) {
        park_now = hooks.schedule_waiter(hooks.user_data,
                                         MakeView(node, MonotonicNowNs()),
                                         spin.iterations());
      }
    });
    if (park_now) {
      std::uint32_t expected = 1;
      if (locked_.compare_exchange_strong(expected, 2, std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
        parks_.fetch_add(1, std::memory_order_relaxed);
        TraceRecord(hooks_.lock_id(), TraceEventKind::kPark, spin.iterations());
        ParkingLot::Park(&locked_, 2);
        spin.Reset();
      }
      continue;
    }
    spin.Once();
  }

  // Acquired. Hand the head role to our successor (if any) and leave.
  ShflQNode* successor = node.next.load(std::memory_order_acquire);
  if (successor == nullptr) {
    ShflQNode* expected = &node;
    if (tail_.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      return;
    }
    SpinWait link_wait;
    while ((successor = node.next.load(std::memory_order_acquire)) == nullptr) {
      link_wait.Once();
    }
  }
  PromoteToHead(*successor);
}

void ShflLock::WaitUntilHead(ShflQNode& node) {
  SpinWait spin;
  while (true) {
    const std::uint32_t status = node.status.load(std::memory_order_acquire);
    if (status == ShflQNode::kHead) {
      return;
    }
    const bool blocking = blocking_.load(std::memory_order_relaxed) != 0;
    bool park_now = blocking && spin.iterations() > 128;
    if (blocking) {
      hooks_.Read(HookSite::kScheduleWaiter, [&](const HookTable& hooks) {
        if (hooks.schedule_waiter != nullptr) {
          park_now = hooks.schedule_waiter(hooks.user_data,
                                           MakeView(node, MonotonicNowNs()),
                                           spin.iterations());
        }
      });
    }
    if (park_now) {
      std::uint32_t expected = ShflQNode::kWaiting;
      if (node.status.compare_exchange_strong(expected, ShflQNode::kParked,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        parks_.fetch_add(1, std::memory_order_relaxed);
        TraceRecord(hooks_.lock_id(), TraceEventKind::kPark, spin.iterations());
        ParkingLot::Park(&node.status, ShflQNode::kParked);
      } else if (expected == ShflQNode::kHead) {
        return;
      }
      continue;
    }
    spin.Once();
  }
}

void ShflLock::PromoteToHead(ShflQNode& node) {
  const std::uint32_t prev =
      node.status.exchange(ShflQNode::kHead, std::memory_order_acq_rel);
  if (prev == ShflQNode::kParked) {
    TraceRecord(hooks_.lock_id(), TraceEventKind::kWake);
    ParkingLot::UnparkOne(&node.status);
  }
}

std::uint32_t ShflLock::ShuffleRound(ShflQNode& head, const HookTable& hooks) {
  const std::uint64_t now = MonotonicNowNs();
  const ShflWaiterView head_view = MakeView(head, now);
  if (hooks.skip_shuffle != nullptr &&
      hooks.skip_shuffle(hooks.user_data, head_view)) {
    return 0;
  }
  SingleWriterAdd(shuffle_rounds_, 1);

  const std::uint32_t bypass_bound =
      hooks.max_waiter_bypasses < kBypassCap ? hooks.max_waiter_bypasses
                                             : kBypassCap;

  // Walk the queue moving policy-matching nodes into the group directly
  // behind the head. Safety rules:
  //   - never touch a node whose `next` is null (it may be the tail an
  //     enqueuer is about to link through);
  //   - bounded scan;
  //   - per-waiter bypass bound: nothing moves past a waiter that has
  //     already been overtaken `bypass_bound` times (starvation bound);
  //   - count-preservation check across the rewritten window.
  ShflQNode* group_tail = &head;
  ShflQNode* prev = group_tail;
  ShflQNode* curr = prev->next.load(std::memory_order_acquire);
  std::uint32_t scanned = 0;
  std::uint32_t moved = 0;
  ShflQNode* skipped[kMaxShuffleScan];
  std::uint32_t num_skipped = 0;

  while (curr != nullptr && scanned < kMaxShuffleScan) {
    ShflQNode* next = curr->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      break;  // possible tail; do not disturb
    }
    ++scanned;
    if (hooks.cmp_node(hooks.user_data, head_view, MakeView(*curr, now))) {
      if (prev == group_tail) {
        // Already adjacent to the group: just extend it.
        group_tail = curr;
        prev = curr;
        curr = next;
      } else {
        // Unlink curr and splice it right behind group_tail: every waiter
        // currently between the group and curr gets overtaken once.
        bool frozen = false;
        for (std::uint32_t i = 0; i < num_skipped; ++i) {
          if (skipped[i]->bypassed >= bypass_bound) {
            frozen = true;
            break;
          }
        }
        if (frozen) {
          SingleWriterAdd(bypass_freezes_, 1);
          break;  // a saturated waiter blocks all further reordering
        }
        for (std::uint32_t i = 0; i < num_skipped; ++i) {
          ++skipped[i]->bypassed;
        }
        prev->next.store(next, std::memory_order_relaxed);
        ShflQNode* after_group = group_tail->next.load(std::memory_order_relaxed);
        curr->next.store(after_group, std::memory_order_relaxed);
        group_tail->next.store(curr, std::memory_order_release);
        group_tail = curr;
        curr = next;
        ++moved;
      }
    } else {
      if (num_skipped < kMaxShuffleScan) {
        skipped[num_skipped++] = curr;
      }
      prev = curr;
      curr = next;
    }
  }

  TraceRecord(hooks_.lock_id(), TraceEventKind::kShuffleRound, moved);
  if (moved > 0) {
    SingleWriterAdd(shuffle_moves_, moved);
    // Queue-integrity runtime check (§4.2): the shuffled window must still
    // contain exactly the nodes we scanned — re-walk and count.
    std::uint32_t recount = 0;
    for (ShflQNode* n = head.next.load(std::memory_order_acquire);
         n != nullptr && recount <= scanned + 1;
         n = n->next.load(std::memory_order_acquire)) {
      ++recount;
    }
    CONCORD_CHECK(recount >= scanned);
  }
  return moved;
}

void ShflLock::Unlock() {
  ThreadContext* holder = holder_ctx_;
  CONCORD_CHECK(holder != nullptr);
  // The thread that locked must unlock: the holder and per-thread counters
  // below have that thread as their only writer.
  CONCORD_DCHECK(holder == &Self());
  if (holder_acquire_ns_ != 0) {
    const std::uint64_t held_ns = MonotonicNowNs() - holder_acquire_ns_;
    holder->UpdateCsEwma(held_ns);
    SingleWriterAdd(holder->lock_hold_total_ns, held_ns);
  }
  SingleWriterAdd(holder->locks_held, -1u);  // wraps: subtracts one
  holder_ctx_ = nullptr;

  const std::uint32_t prev = locked_.exchange(0, std::memory_order_release);
  TraceRecord(hooks_.lock_id(), TraceEventKind::kRelease);
  if (prev == 2) {
    // The queue head parked on the lock word; wake it.
    TraceRecord(hooks_.lock_id(), TraceEventKind::kWake);
    ParkingLot::UnparkOne(&locked_);
  }

  hooks_.Tap(&HookTable::lock_release);
}

}  // namespace concord
