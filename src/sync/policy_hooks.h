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
//   rw_mode         - readers-writer analogue (BRAVO): which RwMode to run
//                     in. Hazard: performance.

#ifndef SRC_SYNC_POLICY_HOOKS_H_
#define SRC_SYNC_POLICY_HOOKS_H_

#include <cstdint>

#include "src/rcu/rcu.h"

namespace concord {

// The waiter snapshot handed to policy decisions. Field layout is load-
// bearing: src/concord/hooks.cc declares the matching BPF context
// descriptors against these exact offsets.
struct ShflWaiterView {
  std::uint64_t wait_ns = 0;       // off 0:  time spent waiting so far
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

// One table shape for both lock families. ShflLock consults every slot but
// rw_mode; BravoLock consults rw_mode and the four taps. Concord rejects a
// table that fills a slot its lock never consults.
struct HookTable {
  using Tap = void (*)(void* user_data, std::uint64_t lock_id);

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

  // Maintain per-acquisition hold-time accounting (timestamps, CS EWMA).
  // Costs two clock reads per acquisition; needed by profiling and by
  // policies reading cs_ewma_ns (e.g. scheduler-cooperative locking).
  bool track_hold_time = false;

  // Starvation bound per *waiter*: once a queued waiter has been overtaken
  // this many times by policy moves, no further waiter may be reordered past
  // it (the shuffle-round budget bounds the shuffler; this bounds the
  // victim). Clamped to ShflLock::kBypassCap.
  std::uint32_t max_waiter_bypasses = 128;
};

// A lock's only way to its hooks: the RCU-published table and the lock's
// registry id. Every hook read goes through Read(), which skips the RCU read
// section entirely while no table is installed.
class HookSite {
 public:
  // Atomically publishes a new table; returns the previous one. The caller
  // must free the old table only after an RCU grace period (Concord does).
  // Passing nullptr reverts the lock to its default behaviour.
  const HookTable* Install(const HookTable* table) {
    return table_.Swap(table);
  }

  // The installed table, or nullptr. Dereferencing it needs an RCU guard.
  const HookTable* Current() const { return table_.Read(); }

  // If a table is installed, runs `fn(table)` inside one RCU read section
  // and returns true. The null probe comes first and needs no guard (it
  // dereferences nothing), so an unpatched lock takes no read-side fences.
  template <typename Fn>
  bool Read(Fn&& fn) const {
    if (table_.Read() == nullptr) {
      return false;
    }
    RcuReadGuard rcu;
    const HookTable* table = table_.Read();
    if (table == nullptr) {
      return false;
    }
    fn(*table);
    return true;
  }

  // Fires `slot` of a table already read under a guard.
  void Fire(const HookTable& table, HookTable::Tap HookTable::*slot) const {
    if (table.*slot != nullptr) {
      (table.*slot)(table.user_data, lock_id_);
    }
  }

  // Fires `slot` of the installed table, if any, in one read section.
  void Tap(HookTable::Tap HookTable::*slot) const {
    Read([&](const HookTable& table) { Fire(table, slot); });
  }

  // Registry identity passed to the taps (0 = unregistered).
  void SetLockId(std::uint64_t id) { lock_id_ = id; }
  std::uint64_t lock_id() const { return lock_id_; }

 private:
  RcuPointer<const HookTable> table_{nullptr};
  std::uint64_t lock_id_ = 0;
};

}  // namespace concord

#endif  // SRC_SYNC_POLICY_HOOKS_H_
