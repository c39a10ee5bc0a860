#include "src/concord/profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/base/json.h"
#include "src/base/time.h"
#include "src/topology/thread_context.h"

namespace concord {
namespace {

// The socket slot a virtual socket folds into (sockets beyond the tracked
// range share the last slot).
std::size_t SocketSlotFor(std::uint32_t socket) {
  return socket < kProfilerSocketSlots ? socket : kProfilerSocketSlots - 1;
}

}  // namespace

void ProfilerTaps::OnAcquire(ShardedLockProfileStats& stats, std::uint64_t) {
  LockProfileStats& shard = stats.Shard();
  shard.acquisitions.fetch_add(1, std::memory_order_relaxed);
  shard.socket_acquisitions[SocketSlotFor(Self().socket)].fetch_add(
      1, std::memory_order_relaxed);
}

void ProfilerTaps::OnContended(ShardedLockProfileStats& stats, std::uint64_t) {
  stats.Shard().contentions.fetch_add(1, std::memory_order_relaxed);
}

void ProfilerTaps::OnAcquired(ShardedLockProfileStats& stats, std::uint64_t,
                              const TapStamps& stamps) {
  // Queued grants carry the NUMA handoff signal: did the lock move to a
  // different socket than the previous queued grant's? Fast-path
  // acquisitions skip this: they never ping-pong the line.
  if (!stamps.queued) {
    return;
  }
  LockProfileStats& shard = stats.Shard();
  if (stamps.acquired_ns != 0) {
    shard.wait_ns.Record(stamps.acquired_ns - stamps.enqueue_ns);
  }
  const std::uint32_t socket = Self().socket;
  const std::uint32_t prev = stats.ExchangeOwnerSocket(socket);
  if (prev != kNoOwnerSocket && prev != socket) {
    shard.cross_socket_handoffs.fetch_add(1, std::memory_order_relaxed);
  }
}

void ProfilerTaps::OnRelease(ShardedLockProfileStats& stats, std::uint64_t,
                             const TapStamps& stamps) {
  LockProfileStats& shard = stats.Shard();
  shard.releases.fetch_add(1, std::memory_order_relaxed);
  if (stamps.acquired_ns != 0) {
    shard.hold_ns.Record(stamps.release_ns - stamps.acquired_ns);
  }
}

void LockProfileStats::MergeFrom(const LockProfileStats& other) {
  acquisitions.fetch_add(other.acquisitions.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  contentions.fetch_add(other.contentions.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  releases.fetch_add(other.releases.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  for (std::size_t i = 0; i < kProfilerSocketSlots; ++i) {
    socket_acquisitions[i].fetch_add(
        other.socket_acquisitions[i].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  cross_socket_handoffs.fetch_add(
      other.cross_socket_handoffs.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  budget_overruns.fetch_add(
      other.budget_overruns.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  quarantines.fetch_add(other.quarantines.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  wait_ns.MergeFrom(other.wait_ns);
  hold_ns.MergeFrom(other.hold_ns);
}

std::size_t ShardedLockProfileStats::ThisThreadShard() {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

Log2Histogram ShardedLockProfileStats::WaitNs() const {
  Log2Histogram merged;
  for (const AlignedStats& shard : shards_) {
    merged.MergeFrom(shard.stats.wait_ns);
  }
  return merged;
}

Log2Histogram ShardedLockProfileStats::HoldNs() const {
  Log2Histogram merged;
  for (const AlignedStats& shard : shards_) {
    merged.MergeFrom(shard.stats.hold_ns);
  }
  return merged;
}

void ShardedLockProfileStats::MergeInto(LockProfileStats& out) const {
  for (const AlignedStats& shard : shards_) {
    out.MergeFrom(shard.stats);
  }
}

std::string ShardedLockProfileStats::Summary() const {
  const Log2Histogram wait_ns = WaitNs();
  const Log2Histogram hold_ns = HoldNs();
  char line[256];
  std::snprintf(line, sizeof(line),
                "acq=%" PRIu64 " contended=%" PRIu64 " (%.1f%%) rel=%" PRIu64
                " wait[p50=%" PRIu64 "ns p99=%" PRIu64 "ns max=%" PRIu64
                "ns] hold[p50=%" PRIu64 "ns p99=%" PRIu64
                "ns] timed_one_in=%" PRIu32,
                Acquisitions(), Contentions(), 100.0 * ContentionRate(),
                Releases(), wait_ns.Percentile(50), wait_ns.Percentile(99),
                wait_ns.Max(), hold_ns.Percentile(50), hold_ns.Percentile(99),
                TimedOneIn());
  std::string out = line;
  const std::uint64_t overruns = BudgetOverruns();
  const std::uint64_t quarantines = Quarantines();
  if (overruns != 0 || quarantines != 0) {
    std::snprintf(line, sizeof(line),
                  " budget_overruns=%" PRIu64 " quarantines=%" PRIu64, overruns,
                  quarantines);
    out += line;
  }
  return out;
}

void ShardedLockProfileStats::AppendJson(JsonWriter& writer) const {
  writer.BeginObject();
  writer.NumberField("acquisitions", Acquisitions());
  writer.NumberField("contentions", Contentions());
  writer.NumberField("releases", Releases());
  writer.NumberField("budget_overruns", BudgetOverruns());
  writer.NumberField("quarantines", Quarantines());
  writer.Key("socket_acquisitions").BeginArray();
  for (std::size_t i = 0; i < kProfilerSocketSlots; ++i) {
    writer.Number(SocketAcquisitions(i));
  }
  writer.EndArray();
  writer.NumberField("cross_socket_handoffs", CrossSocketHandoffs());
  writer.NumberField("contention_rate", ContentionRate());
  writer.NumberField("timed_one_in", TimedOneIn());
  writer.Key("wait_ns");
  WaitNs().AppendJson(writer);
  writer.Key("hold_ns");
  HoldNs().AppendJson(writer);
  writer.EndObject();
}

std::uint64_t ShardedLockProfileStats::SocketAcquisitions(
    std::size_t socket_slot) const {
  if (socket_slot >= kProfilerSocketSlots) {
    return 0;
  }
  std::uint64_t total = 0;
  for (const AlignedStats& shard : shards_) {
    total += shard.stats.socket_acquisitions[socket_slot].load(
        std::memory_order_relaxed);
  }
  return total;
}

LockProfileSnapshot ShardedLockProfileStats::Snapshot() const {
  LockProfileSnapshot snap;
  snap.taken_at_ns = ClockNowNs();
  // One merge pass over the shards instead of one cross-shard sweep per
  // field. The per-field accessors each walk all shards, so a snapshot taken
  // concurrently with writers used to pair counters from visibly different
  // instants — e.g. a contention recorded after the acquisitions sweep but
  // before the contentions sweep could make a window delta report
  // contentions > acquisitions. Merging shard-by-shard reads each shard's
  // fields back-to-back, shrinking the skew to the handful of ops in flight
  // during one MergeFrom. The residual skew cannot be eliminated without
  // stopping the writers (the taps are deliberately lock-free), so the
  // cross-field invariants consumers rely on (contentions <= acquisitions,
  // releases <= acquisitions, ContentionRate() <= 1) are restored by the
  // clamps below; each counter remains individually monotonic.
  LockProfileStats merged;
  MergeInto(merged);
  snap.acquisitions = merged.acquisitions.load(std::memory_order_relaxed);
  snap.contentions =
      std::min(merged.contentions.load(std::memory_order_relaxed),
               snap.acquisitions);
  snap.releases = std::min(merged.releases.load(std::memory_order_relaxed),
                           snap.acquisitions);
  for (std::size_t i = 0; i < kProfilerSocketSlots; ++i) {
    snap.socket_acquisitions[i] =
        merged.socket_acquisitions[i].load(std::memory_order_relaxed);
  }
  snap.cross_socket_handoffs =
      merged.cross_socket_handoffs.load(std::memory_order_relaxed);
  snap.budget_overruns =
      merged.budget_overruns.load(std::memory_order_relaxed);
  snap.quarantines = merged.quarantines.load(std::memory_order_relaxed);
  snap.wait_ns = merged.wait_ns;
  snap.hold_ns = merged.hold_ns;
  return snap;
}

namespace {
std::uint64_t ClampedDelta(std::uint64_t now, std::uint64_t then) {
  return now > then ? now - then : 0;
}
}  // namespace

std::uint32_t LockProfileSnapshot::ActiveSockets(double min_share) const {
  std::uint64_t total = 0;
  for (const std::uint64_t slot : socket_acquisitions) {
    total += slot;
  }
  if (total == 0) {
    return 0;
  }
  std::uint32_t active = 0;
  for (const std::uint64_t slot : socket_acquisitions) {
    if (static_cast<double>(slot) >=
        min_share * static_cast<double>(total)) {
      ++active;
    }
  }
  return active;
}

LockProfileSnapshot LockProfileSnapshot::DeltaSince(
    const LockProfileSnapshot& earlier) const {
  LockProfileSnapshot delta;
  delta.taken_at_ns = taken_at_ns;
  delta.window_start_ns = earlier.taken_at_ns;
  delta.acquisitions = ClampedDelta(acquisitions, earlier.acquisitions);
  delta.contentions = ClampedDelta(contentions, earlier.contentions);
  delta.releases = ClampedDelta(releases, earlier.releases);
  for (std::size_t i = 0; i < kProfilerSocketSlots; ++i) {
    delta.socket_acquisitions[i] =
        ClampedDelta(socket_acquisitions[i], earlier.socket_acquisitions[i]);
  }
  delta.cross_socket_handoffs =
      ClampedDelta(cross_socket_handoffs, earlier.cross_socket_handoffs);
  delta.budget_overruns = ClampedDelta(budget_overruns, earlier.budget_overruns);
  delta.quarantines = ClampedDelta(quarantines, earlier.quarantines);
  delta.wait_ns = wait_ns.DeltaSince(earlier.wait_ns);
  delta.hold_ns = hold_ns.DeltaSince(earlier.hold_ns);
  return delta;
}

void ShardedLockProfileStats::Reset() {
  for (AlignedStats& shard : shards_) {
    shard.stats.Reset();
  }
}

}  // namespace concord
