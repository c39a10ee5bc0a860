// Per-lock profiling state — the "dynamic lock profiling" half of C3 (§3.2).
//
// Unlike lockstat, which profiles every lock in the kernel at once, Concord
// attaches profiling taps per lock instance / class / pattern. Stats live in
// per-CPU-style shards behind the registry lock id so the taps are wait-free
// AND do not ping-pong one cache line between every acquiring core: each
// thread records into its own shard, and a reader takes one snapshot across
// the shards on demand (counters are monotonic, so pollers can diff
// snapshots live).

#ifndef SRC_CONCORD_PROFILER_H_
#define SRC_CONCORD_PROFILER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/base/cacheline.h"
#include "src/base/histogram.h"
#include "src/sync/policy_hooks.h"

namespace concord {

class JsonWriter;

// Per-virtual-socket acquisition slots tracked by the profiler. Virtual
// sockets beyond this fold into the last slot (the default topology has 8).
inline constexpr std::size_t kProfilerSocketSlots = 8;

// Sentinel for "no previous owner socket observed yet".
inline constexpr std::uint32_t kNoOwnerSocket = ~0u;

// The profile record's counters, listed once. LockProfileSnapshot, the shm
// segment's record (src/concord/agent/shm_segment.h) and the fleet's merged
// window hold this block, and add, diff and copy it whole. Every counter is a
// u64, so the block is also an array of words.
struct LockProfileCounters {
  std::uint64_t acquisitions = 0;
  std::uint64_t contentions = 0;
  std::uint64_t releases = 0;
  // NUMA signal for the autotune control plane: which virtual sockets the
  // acquiring threads sit on, and how often a queued grant moved the lock to
  // a different socket than the previous queued grant's.
  std::uint64_t socket_acquisitions[kProfilerSocketSlots] = {};
  std::uint64_t cross_socket_handoffs = 0;
  // Containment counters (src/concord/containment.h): hook invocations that
  // blew their runtime budget, and how often this lock's policy was
  // quarantined as a result of any fault class.
  std::uint64_t budget_overruns = 0;
  std::uint64_t quarantines = 0;

  // Adds `other` counter by counter.
  void Add(const LockProfileCounters& other);

  // The counts recorded since `earlier`, counter by counter, each clamped
  // at 0.
  LockProfileCounters ClampedDelta(const LockProfileCounters& earlier) const;
};

// One shard: the atomic form of LockProfileCounters, which the taps write,
// and the two histograms. Read only through ShardedLockProfileStats; a new
// counter goes here, in LockProfileCounters and in Snapshot()'s load
// (profiler.cc checks that the sizes agree).
struct LockProfileStats {
  std::atomic<std::uint64_t> acquisitions{0};
  std::atomic<std::uint64_t> contentions{0};
  std::atomic<std::uint64_t> releases{0};
  std::atomic<std::uint64_t> socket_acquisitions[kProfilerSocketSlots] = {};
  std::atomic<std::uint64_t> cross_socket_handoffs{0};
  std::atomic<std::uint64_t> budget_overruns{0};
  std::atomic<std::uint64_t> quarantines{0};
  // Timed acquisitions only (HookSite::TimeAcquisition): 1 in
  // HookSite::kTimedOneIn, or all under hold-time accounting.
  Log2Histogram wait_ns;  // queued acquisitions: time from enqueue to grant
  Log2Histogram hold_ns;  // critical-section lengths
};

// A point-in-time copy of one lock's profiling state, and the profiler's only
// read form: every report renders one. The counters are cumulative since
// profiling was enabled; control planes that need *windowed* behaviour (the
// autotune controller, trend tooling) take a snapshot per tick and diff
// consecutive snapshots with DeltaSince.
struct LockProfileSnapshot : LockProfileCounters {
  // ClockNowNs() when the snapshot (or, for a delta, its newer endpoint) was
  // taken; window_start_ns is 0 for a cumulative snapshot and the older
  // endpoint's taken_at_ns for a delta.
  std::uint64_t taken_at_ns = 0;
  std::uint64_t window_start_ns = 0;
  // One timed acquisition in this many fed wait_ns and hold_ns
  // (ShardedLockProfileStats::TimedOneIn).
  std::uint32_t timed_one_in = HookSite::kTimedOneIn;
  Log2Histogram wait_ns;
  Log2Histogram hold_ns;

  double ContentionRate() const {
    return acquisitions == 0 ? 0.0
                             : static_cast<double>(contentions) /
                                   static_cast<double>(acquisitions);
  }

  // Acquisition rate over the window, in ops/sec (0 for cumulative
  // snapshots, which have no window).
  double AcquisitionsPerSec() const {
    if (window_start_ns == 0 || taken_at_ns <= window_start_ns) {
      return 0.0;
    }
    return static_cast<double>(acquisitions) * 1e9 /
           static_cast<double>(taken_at_ns - window_start_ns);
  }

  // Number of sockets contributing at least `min_share` of the window's
  // acquisitions (NUMA-spread signal; 0 when the window saw no traffic).
  std::uint32_t ActiveSockets(double min_share = 0.10) const;

  // The samples recorded between `earlier` and this snapshot. Both must come
  // from the same lock, `earlier` first; counter deltas clamp at 0.
  LockProfileSnapshot DeltaSince(const LockProfileSnapshot& earlier) const;

  // The one-line form Concord::ProfileReport prints, and the "stats" object
  // of Concord::StatsJson.
  std::string Summary() const;
  void AppendJson(JsonWriter& writer) const;
};

// The per-lock profiling unit the registry owns: kShards cache-aligned
// LockProfileStats written by the hot taps, read through Snapshot().
//
// Writers: Shard() hashes the calling thread onto a shard; one acquisition's
// whole lifecycle (acquire/contended/acquired/release) runs on one thread,
// so its samples land in one shard: both lock families require the
// acquiring thread to release. Counters would total correctly even if a
// release landed elsewhere, because every read sums all shards.
class ShardedLockProfileStats {
 public:
  static constexpr std::size_t kShards = 8;

  // The calling thread's shard. Thread→shard assignment is round-robin at
  // first use, fixed thereafter.
  LockProfileStats& Shard() { return shards_[ThisThreadShard()].stats; }

  // Shard for control-plane writers (containment bumping quarantine counts,
  // tests injecting synthetic histogram samples). Just shard 0 — it merges
  // into every aggregate like any other shard; the name documents intent.
  LockProfileStats& ControlShard() { return shards_[0].stats; }

  // Every counter and both histograms from one pass over the shards, stamped
  // with ClockNowNs(). Reports read this and nothing else.
  //
  // Consistency bound: writers keep recording during the pass, so the copy
  // may straddle the handful of operations in flight — but each counter is
  // individually monotonic across calls, and the cross-field invariants
  // contentions <= acquisitions, releases <= acquisitions (and therefore
  // ContentionRate() <= 1) are enforced by clamping. DeltaSince of two such
  // snapshots can attribute an in-flight op to either window, never to both
  // and never to neither.
  LockProfileSnapshot Snapshot() const;

  // Live, monotonic single-counter sums (each one sweeps the shards, so two
  // of them are not one cut; a report reads Snapshot()).
  std::uint64_t Acquisitions() const { return Sum(&LockProfileStats::acquisitions); }
  std::uint64_t Contentions() const { return Sum(&LockProfileStats::contentions); }
  std::uint64_t Releases() const { return Sum(&LockProfileStats::releases); }

  // Last socket a queued grant landed on (cross-socket handoff tracking);
  // returns the previous value. Only a mutex holder calls it
  // (ProfilerTaps::OnAcquired on a queued grant), so the mutex orders the
  // calls and a relaxed load and store replace an RMW.
  std::uint32_t ExchangeOwnerSocket(std::uint32_t socket) {
    const std::uint32_t prev =
        last_owner_socket_.load(std::memory_order_relaxed);
    last_owner_socket_.store(socket, std::memory_order_relaxed);
    return prev;
  }

  // One timed acquisition in this many feeds the wait and hold histograms
  // (HookSite::TimedOneIn of the lock's table). Concord sets it at each
  // install; it is reported, never configured.
  std::uint32_t TimedOneIn() const {
    return timed_one_in_.load(std::memory_order_relaxed);
  }
  void SetTimedOneIn(std::uint32_t one_in) {
    timed_one_in_.store(one_in, std::memory_order_relaxed);
  }

 private:
  struct CONCORD_CACHE_ALIGNED AlignedStats {
    LockProfileStats stats;
  };

  static std::size_t ThisThreadShard();

  std::uint64_t Sum(std::atomic<std::uint64_t> LockProfileStats::* field) const {
    std::uint64_t total = 0;
    for (const AlignedStats& shard : shards_) {
      total += (shard.stats.*field).load(std::memory_order_relaxed);
    }
    return total;
  }

  AlignedStats shards_[kShards];
  std::atomic<std::uint32_t> last_owner_socket_{kNoOwnerSocket};
  std::atomic<std::uint32_t> timed_one_in_{HookSite::kTimedOneIn};
};

// Native profiling taps. The tap trampolines Concord installs in a lock's
// HookTable call these, on both lock families. They read no clock: wait and
// hold come from the lock's stamps of a timed acquisition, and an untimed
// one (all stamps 0) is counted but not sampled. `lock_id` is unused.
//   OnAcquire   - acquisitions and per-socket acquisitions;
//   OnContended - contentions;
//   OnAcquired  - on a queued grant: a cross-socket handoff check, and the
//                 wait (acquired - enqueue) if timed;
//   OnRelease   - releases, and the hold (release - acquired) if timed.
// Counting stays in the acquire and contended taps, outside the critical
// section; OnAcquired, which runs inside it, does work only on queued grants.
struct ProfilerTaps {
  static void OnAcquire(ShardedLockProfileStats& stats, std::uint64_t lock_id);
  static void OnContended(ShardedLockProfileStats& stats, std::uint64_t lock_id);
  static void OnAcquired(ShardedLockProfileStats& stats, std::uint64_t lock_id,
                         const TapStamps& stamps = {});
  static void OnRelease(ShardedLockProfileStats& stats, std::uint64_t lock_id,
                        const TapStamps& stamps = {});
};

}  // namespace concord

#endif  // SRC_CONCORD_PROFILER_H_
