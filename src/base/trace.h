// Lock-event flight recorder.
//
// Always-on-capable concurrency event tracing in the style of kernel eBPF
// tracing tools: every participating thread owns a fixed-size ring buffer of
// timestamped lock events (acquire/contended/acquired/release, park/wake,
// shuffle rounds, policy dispatches, budget trips, quarantines). Recording is
// wait-free and lock-free — one relaxed-atomic bitmap test when tracing is
// off, four relaxed stores plus a release increment when on — so the hooks
// in src/sync and src/concord can call TraceRecord() unconditionally.
//
// One gate, at runtime: a per-lock-id enable bitmap
// (TraceRegistry::EnableLock), so a production build carries the recorder
// and lights it up for exactly one suspect lock instance — the same
// granularity argument as the dynamic lock profiler (§3.2).
//
// Snapshots merge all rings into one time-sorted event list. Readers never
// stop writers: a ring slot concurrently overwritten during a snapshot is
// detected via the writer's position counter and dropped.

#ifndef SRC_BASE_TRACE_H_
#define SRC_BASE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/cacheline.h"

namespace concord {

enum class TraceEventKind : std::uint16_t {
  kAcquire = 0,     // lock requested
  kContended,       // slow path entered
  kAcquired,        // lock granted
  kRelease,         // lock released
  kPark,            // waiter about to park          (arg: spin iterations)
  kWake,            // holder/shuffler woke a waiter
  kShuffleRound,    // one shuffle round ran         (arg: waiters moved)
  kPolicyDispatch,  // policy hook invoked           (arg: HookKind)
  kBudgetTrip,      // hook budget trip harvested    (arg: total overruns)
  kQuarantine,      // containment quarantined the lock's policy
};
inline constexpr int kNumTraceEventKinds = 10;

const char* TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  std::uint64_t ts_ns = 0;
  std::uint64_t lock_id = 0;
  std::uint64_t arg = 0;
  std::uint32_t tid = 0;  // recorder-assigned dense thread id (stable per thread)
  TraceEventKind kind = TraceEventKind::kAcquire;
};

// Per-thread ring. Single writer (the owning thread); concurrent snapshot
// readers. Slots are stored as individually-atomic words so a racing reader
// sees torn *events* at worst, never undefined behaviour; torn candidates
// are discarded by the position-counter check in Snapshot().
class TraceRing {
 public:
  static constexpr std::size_t kCapacity = 2048;  // events; power of two
  static_assert((kCapacity & (kCapacity - 1)) == 0);

  void Append(std::uint64_t ts_ns, std::uint64_t lock_id, TraceEventKind kind,
              std::uint64_t arg) {
    const std::uint64_t pos = pos_.load(std::memory_order_relaxed);
    Slot& slot = slots_[pos & (kCapacity - 1)];
    slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
    slot.lock_id.store(lock_id, std::memory_order_relaxed);
    slot.kind_arg.store(
        (static_cast<std::uint64_t>(kind) << 48) | (arg & 0xFFFFFFFFFFFFull),
        std::memory_order_relaxed);
    // Publish: an event is only readable once the position advances past it.
    pos_.store(pos + 1, std::memory_order_release);
  }

  // Appends this ring's events (oldest first) to `out`. Events the writer
  // may have been overwriting during the copy are dropped.
  void Snapshot(std::uint32_t tid, std::vector<TraceEvent>& out) const;

  // Single-snapshot event drop: resets the read window (writer-racy; test
  // and control-plane use only).
  void Clear() { pos_.store(0, std::memory_order_release); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint64_t> lock_id{0};
    std::atomic<std::uint64_t> kind_arg{0};
  };

  std::atomic<std::uint64_t> pos_{0};  // total events ever appended
  Slot slots_[kCapacity];
};

namespace trace_internal {

// Per-lock runtime enable bitmap. Sized to the Concord registry cap
// (Concord::kMaxLocks); lock id 0 (unregistered locks) is never traced.
inline constexpr std::uint64_t kMaxTraceLocks = 4096;
extern std::atomic<std::uint64_t> g_lock_bits[kMaxTraceLocks / 64];
// Number of enabled locks: lets the disabled hot path be one load + branch.
extern std::atomic<std::uint32_t> g_enabled_locks;

}  // namespace trace_internal

// True if events for `lock_id` should be recorded right now.
inline bool TraceEnabled(std::uint64_t lock_id) {
  if (trace_internal::g_enabled_locks.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  if (lock_id == 0 || lock_id >= trace_internal::kMaxTraceLocks) {
    return false;
  }
  return (trace_internal::g_lock_bits[lock_id / 64].load(
              std::memory_order_relaxed) &
          (1ull << (lock_id % 64))) != 0;
}

class TraceRegistry {
 public:
  static TraceRegistry& Global();

  // Runtime per-lock gates. Enable/Disable are idempotent.
  void EnableLock(std::uint64_t lock_id);
  void DisableLock(std::uint64_t lock_id);
  void DisableAll();
  bool Enabled(std::uint64_t lock_id) const { return TraceEnabled(lock_id); }

  // The calling thread's ring (created and registered on first use; rings
  // outlive their threads so post-mortem snapshots keep late events).
  TraceRing& ThisThreadRing();

  // Merged, ts-sorted view of every ring.
  std::vector<TraceEvent> Collect() const;

  // Drops recorded events (not the enable bits). Threads recording
  // concurrently may keep a handful of in-flight events.
  void ClearEvents();

  // Test-only: ClearEvents + DisableAll.
  void ResetForTest();

 private:
  TraceRegistry() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceRing>> rings_;  // index = tid - 1
};

// Records one event into the calling thread's ring iff tracing is enabled
// for `lock_id`. This is THE hot-path entry point: when tracing is off it
// costs the TraceEnabled() branch and nothing else — the timestamp is only
// read once the gate passes. Out-of-line so the disabled branch stays small
// at every call site.
void TraceRecordSlow(std::uint64_t lock_id, TraceEventKind kind,
                     std::uint64_t arg);

inline void TraceRecord(std::uint64_t lock_id, TraceEventKind kind,
                        std::uint64_t arg = 0) {
  if (!TraceEnabled(lock_id)) {
    return;
  }
  TraceRecordSlow(lock_id, kind, arg);
}

}  // namespace concord

#endif  // SRC_BASE_TRACE_H_
