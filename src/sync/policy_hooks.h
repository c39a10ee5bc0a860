// Lock policy hook tables — the mechanism behind Table 1 of the paper.
//
// A lock does not know *why* one waiter should run before another; a policy
// does. Locks in this library consult an RCU-published hook table at their
// decision points. The Concord layer (src/concord) fills these tables with
// trampolines into a policy's program chains and hot-swaps them while the
// lock is under contention. Every program runs through RunPolicyProgram
// (src/bpf/jit/jit.h), whether it is precompiled C++ ("precompiled" in the
// paper's comparison), JIT-compiled BPF or interpreted BPF ("Concord-...").
// A table installed straight into a HookSite, with raw function pointers,
// is the precompiled baseline the benches compare against.
//
// Hook semantics follow Table 1:
//   cmp_node        - should `curr` be moved into the shuffler's group?
//                     Pure decision: cannot mutate lock state. Hazard:
//                     fairness.
//   skip_shuffle    - skip this shuffling round entirely. Hazard: fairness.
//   schedule_waiter - should this waiter park now (vs. keep spinning)?
//                     Hazard: performance (wake-up latency).
//   lock_acquire / lock_contended / lock_acquired / lock_release
//                   - profiling taps. Hazard: lengthen the critical section.
//                     lock_acquired and lock_release receive the lock's
//                     stamps of a timed acquisition (TapStamps).
//   rw_mode         - readers-writer analogue (BRAVO): which RwMode to run
//                     in. Hazard: performance.

#ifndef SRC_SYNC_POLICY_HOOKS_H_
#define SRC_SYNC_POLICY_HOOKS_H_

#include <atomic>
#include <cstdint>

#include "src/base/rng.h"
#include "src/base/trace.h"
#include "src/rcu/rcu.h"

namespace concord {

// The waiter snapshot handed to policy decisions. Field layout is load-
// bearing: src/concord/hooks.cc declares the matching BPF context
// descriptors against these exact offsets.
struct ShflWaiterView {
  std::uint64_t wait_ns = 0;       // off 0:  time spent waiting so far;
                                   //         0 unless track_wait_time
  std::uint64_t cs_ewma_ns = 0;    // off 8:  waiter's critical-section EWMA
  std::uint32_t socket = 0;        // off 16: virtual socket
  std::uint32_t vcpu = 0;          // off 20: virtual CPU
  std::int32_t priority = 0;       // off 24: task priority annotation
  std::uint32_t task_class = 0;    // off 28: TaskClass
  std::uint32_t locks_held = 0;    // off 32: current nesting depth
  std::uint32_t task_id = 0;       // off 36
};
static_assert(sizeof(ShflWaiterView) == 40);

// Readers-writer lock mode, consulted by BRAVO-style locks on the reader
// path. Policies switch a lock between flavours on the fly (§3.1.1 "lock
// switching").
enum class RwMode : std::uint32_t {
  kNeutral = 0,     // plain underlying readers-writer lock
  kReaderBias = 1,  // BRAVO fast path enabled
  kWriterOnly = 2,  // readers take the write path (write-heavy workloads)
};

// What a lock hands its taps: the stamps of a timed acquisition (see
// HookSite::TimeAcquisition), all from MonotonicNowNs(). Every stamp is 0 on
// an untimed acquisition and at the lock_acquire and lock_contended taps.
struct TapStamps {
  std::uint64_t enqueue_ns = 0;   // lock_acquired: when the waiter queued
  std::uint64_t acquired_ns = 0;  // lock_acquired and lock_release
  std::uint64_t release_ns = 0;   // lock_release
  // lock_acquired: the acquisition queued. Set on every acquisition, timed
  // or not.
  bool queued = false;
};

// One table shape for both lock families. ShflLock consults every slot but
// rw_mode; BravoLock consults rw_mode and the lock_acquire, lock_acquired and
// lock_release taps (no reader or writer queues through a hook point).
// Concord rejects a table that fills a slot its lock never consults.
struct HookTable {
  using Tap = void (*)(void* user_data, std::uint64_t lock_id,
                       const TapStamps& stamps);

  // Opaque cookie passed to every hook (Concord stores its policy object
  // here; a raw table stores whatever it likes).
  void* user_data = nullptr;

  // Shuffling decisions. Null => lock default (no shuffling).
  bool (*cmp_node)(void* user_data, const ShflWaiterView& shuffler,
                   const ShflWaiterView& curr) = nullptr;
  bool (*skip_shuffle)(void* user_data, const ShflWaiterView& shuffler) = nullptr;

  // Parking decision for blocking locks. Null => default spin-then-park.
  // `spin_iterations` is how many wait steps the waiter has taken.
  bool (*schedule_waiter)(void* user_data, const ShflWaiterView& waiter,
                          std::uint32_t spin_iterations) = nullptr;

  // Profiling taps. `lock_id` is the lock's registry id (0 if unregistered).
  Tap lock_acquire = nullptr;
  Tap lock_contended = nullptr;
  Tap lock_acquired = nullptr;
  Tap lock_release = nullptr;

  // Which RwMode should a readers-writer lock operate in right now? Null =>
  // the lock's default mode.
  std::uint32_t (*rw_mode)(void* user_data) = nullptr;

  // Safety bound on shuffling rounds per lock handover (§4.2: "statically
  // bounding the number of shuffling rounds minimizes starvation"). The lock
  // clamps this to ShflLock::kShuffleRoundCap.
  std::uint32_t max_shuffle_rounds = 64;

  // Time every acquisition (HookSite::TimeAcquisition) and feed each hold
  // into the holder's cs_ewma_ns. Costs two or three clock reads per
  // acquisition. Concord sets it iff a program on the lock reads cs_ewma_ns
  // (e.g. scheduler-cooperative locking); a raw table opts in. Without it a
  // lock whose table fills a timed tap (a profiled lock) times 1 acquisition
  // in HookSite::kTimedOneIn per thread and updates cs_ewma_ns from those.
  bool track_hold_time = false;

  // Stamp every waiter at enqueue and read the clock for each view, so the
  // decision hooks see a real wait_ns. Concord sets it iff a decision
  // program reads wait_ns; a raw table opts in. Without it a view's wait_ns
  // is 0, as it is for a waiter that queued before a table set it.
  bool track_wait_time = false;

  // Starvation bound per *waiter*: once a queued waiter has been overtaken
  // this many times by policy moves, no further waiter may be reordered past
  // it (the shuffle-round budget bounds the shuffler; this bounds the
  // victim). Clamped to ShflLock::kBypassCap.
  std::uint32_t max_waiter_bypasses = 128;
};

// A lock's only way to its hooks: the RCU-published table, a mask of the
// slots that table fills, and the lock's registry id. Every hook read names
// the mask bits it needs and enters an RCU read section only when one of them
// is set, so a lock pays a section only for the hooks its table fills: an
// unpatched lock enters none, a cmp_node-only policy's uncontended pair none,
// and an rw_mode-only read pair one.
//
// Install publishes in three steps: OR the new table's bits into the mask,
// swap the table pointer, then store the new table's exact bits. The mask is
// relaxed and read outside any section, which is sound because:
//   - every dereference of a table stays inside a read section, so memory
//     safety never rests on the mask;
//   - a stale set bit only enters a section that finds an empty slot and does
//     nothing (every slot is checked for null before it is called);
//   - a stale clear bit can be read only by a load that precedes Install's OR
//     in the mask's modification order, so the acquisition that made it
//     started before Install (and so before Concord's Attach) returned and
//     may still run under the old table;
//   - an acquisition that happens after Install returns reads the exact bits
//     (or a later install's) by coherence, and the new table pointer too.
//
// The site also decides which acquisitions are timed (TimeAcquisition): the
// lock reads the clock only on those, and hands the stamps to its
// lock_acquired and lock_release taps. And every tap records its lock event
// in the flight recorder (src/base/trace.h) while the lock is traced, so
// both lock families trace acquire, contended, acquired and release here.
class HookSite {
 public:
  // Mask bits: one per hook slot, plus the hold and wait timing flags.
  static constexpr std::uint32_t kCmpNode = 1u << 0;
  static constexpr std::uint32_t kSkipShuffle = 1u << 1;
  static constexpr std::uint32_t kScheduleWaiter = 1u << 2;
  static constexpr std::uint32_t kLockAcquire = 1u << 3;
  static constexpr std::uint32_t kLockContended = 1u << 4;
  static constexpr std::uint32_t kLockAcquired = 1u << 5;
  static constexpr std::uint32_t kLockRelease = 1u << 6;
  static constexpr std::uint32_t kRwMode = 1u << 7;
  static constexpr std::uint32_t kTrackHoldTime = 1u << 8;
  static constexpr std::uint32_t kTrackWaitTime = 1u << 9;
  // The taps that receive a timed acquisition's stamps.
  static constexpr std::uint32_t kTimedTaps = kLockAcquired | kLockRelease;

  // A thread times 1 in this many of its acquisitions of locks whose table
  // fills a timed tap but asks for no hold-time accounting.
  static constexpr std::uint32_t kTimedOneIn = 16;

  // Atomically publishes a new table; returns the previous one. The caller
  // must free the old table only after an RCU grace period (Concord does).
  // Passing nullptr reverts the lock to its default behaviour. Installs must
  // not race each other (Concord serializes them per lock).
  const HookTable* Install(const HookTable* table) {
    const std::uint32_t bits = BitsOf(table);
    mask_.fetch_or(bits, std::memory_order_relaxed);
    const HookTable* old = table_.Swap(table);
    mask_.store(bits, std::memory_order_relaxed);
    return old;
  }

  // The installed table, or nullptr. Dereferencing it needs an RCU guard.
  const HookTable* Current() const { return table_.Read(); }

  // The mask bits of the installed table (see the class comment).
  std::uint32_t mask() const { return mask_.load(std::memory_order_relaxed); }

  // Whether the acquisition that read `mask` is timed: every one while the
  // table asks for hold-time accounting, 1 in kTimedOneIn of each thread's
  // acquisitions while only a timed tap is filled, none otherwise. Both lock
  // families call this once per acquisition; an unpatched lock reads
  // neither the clock nor the thread's sampler.
  static bool TimeAcquisition(std::uint32_t mask) {
    if ((mask & (kTrackHoldTime | kTimedTaps)) == 0) [[likely]] {
      return false;
    }
    return (mask & kTrackHoldTime) != 0 || SampleThisThread();
  }

  // The rate TimeAcquisition applies under `mask`: one timed acquisition in
  // this many (1 under hold-time accounting).
  static std::uint32_t TimedOneIn(std::uint32_t mask) {
    return (mask & kTrackHoldTime) != 0 ? 1 : kTimedOneIn;
  }

  // If any of `bits` is set and a table is installed, runs `fn(table)` inside
  // one RCU read section. Otherwise enters no section.
  template <typename Fn>
  void Read(std::uint32_t bits, Fn&& fn) const {
    if ((mask() & bits) != 0) {
      ReadTable(fn);
    }
  }

  // Records the tap's trace event, then fires `slot` of the installed table
  // with `stamps`, if its bit is set, in one read section. The read section
  // works on its own copy of `stamps`, so the copy the tap's pointer reaches
  // is built only once the bit is found set: an unpatched lock stores
  // nothing for it.
  void Tap(HookTable::Tap HookTable::*slot, TapStamps stamps = {}) const {
    Tap(mask(), slot, stamps);
  }

  // The same, against a mask() the acquisition has already read.
  void Tap(std::uint32_t mask, HookTable::Tap HookTable::*slot,
           TapStamps stamps = {}) const {
    TraceRecord(lock_id_, TapTraceKind(slot));
    if ((mask & TapBit(slot)) != 0) {
      ReadTable([this, slot, stamps](const HookTable& table) {
        if (table.*slot != nullptr) {
          (table.*slot)(table.user_data, lock_id_, stamps);
        }
      });
    }
  }

  // Registry identity passed to the taps (0 = unregistered).
  void SetLockId(std::uint64_t id) { lock_id_ = id; }
  std::uint64_t lock_id() const { return lock_id_; }

 private:
  // Runs `fn(table)` inside one RCU read section if a table is installed.
  template <typename Fn>
  void ReadTable(Fn&& fn) const {
    RcuReadGuard rcu;
    const HookTable* table = table_.Read();
    if (table != nullptr) {
      fn(*table);
    }
  }

  // One draw of the calling thread's sampler: true on its first call, then
  // after gaps drawn uniformly from [1, 2 * kTimedOneIn - 1] (mean
  // kTimedOneIn) by a per-thread generator with a fixed seed. A random gap
  // keeps a thread that takes several profiled locks in a fixed order from
  // timing only one of them, as a fixed period would.
  static bool SampleThisThread() {
    struct Sampler {
      std::uint32_t countdown = 0;
      std::uint64_t state = 0x5eed'c0c0'a7ed'0001ull;
    };
    static thread_local Sampler sampler;
    if (sampler.countdown != 0) {
      --sampler.countdown;
      return false;
    }
    sampler.countdown = static_cast<std::uint32_t>(
        SplitMix64(sampler.state) % (2 * kTimedOneIn - 1));
    return true;
  }

  // The mask bits `table` fills (0 for nullptr).
  static std::uint32_t BitsOf(const HookTable* table) {
    if (table == nullptr) {
      return 0;
    }
    return (table->cmp_node != nullptr ? kCmpNode : 0) |
           (table->skip_shuffle != nullptr ? kSkipShuffle : 0) |
           (table->schedule_waiter != nullptr ? kScheduleWaiter : 0) |
           (table->lock_acquire != nullptr ? kLockAcquire : 0) |
           (table->lock_contended != nullptr ? kLockContended : 0) |
           (table->lock_acquired != nullptr ? kLockAcquired : 0) |
           (table->lock_release != nullptr ? kLockRelease : 0) |
           (table->rw_mode != nullptr ? kRwMode : 0) |
           (table->track_hold_time ? kTrackHoldTime : 0) |
           (table->track_wait_time ? kTrackWaitTime : 0);
  }

  static constexpr std::uint32_t TapBit(HookTable::Tap HookTable::*slot) {
    return slot == &HookTable::lock_acquire     ? kLockAcquire
           : slot == &HookTable::lock_contended ? kLockContended
           : slot == &HookTable::lock_acquired  ? kLockAcquired
                                                : kLockRelease;
  }

  static constexpr TraceEventKind TapTraceKind(
      HookTable::Tap HookTable::*slot) {
    return slot == &HookTable::lock_acquire     ? TraceEventKind::kAcquire
           : slot == &HookTable::lock_contended ? TraceEventKind::kContended
           : slot == &HookTable::lock_acquired  ? TraceEventKind::kAcquired
                                                : TraceEventKind::kRelease;
  }

  RcuPointer<const HookTable> table_{nullptr};
  std::atomic<std::uint32_t> mask_{0};
  std::uint64_t lock_id_ = 0;
};

}  // namespace concord

#endif  // SRC_SYNC_POLICY_HOOKS_H_
