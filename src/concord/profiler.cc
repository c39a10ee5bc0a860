#include "src/concord/profiler.h"

#include <algorithm>
#include <array>
#include <bit>
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

// The block as words, for the counter-wise arithmetic below.
constexpr std::size_t kCounterWords =
    sizeof(LockProfileCounters) / sizeof(std::uint64_t);
using CounterWords = std::array<std::uint64_t, kCounterWords>;
static_assert(sizeof(LockProfileCounters) == sizeof(CounterWords),
              "every profile counter is a u64");
static_assert(sizeof(LockProfileStats) ==
                  sizeof(LockProfileCounters) + 2 * sizeof(Log2Histogram),
              "a shard holds the block's counters and nothing else");

// One shard's counters, each a relaxed load.
LockProfileCounters LoadCounters(const LockProfileStats& shard) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  LockProfileCounters out;
  out.acquisitions = shard.acquisitions.load(kRelaxed);
  out.contentions = shard.contentions.load(kRelaxed);
  out.releases = shard.releases.load(kRelaxed);
  for (std::size_t i = 0; i < kProfilerSocketSlots; ++i) {
    out.socket_acquisitions[i] = shard.socket_acquisitions[i].load(kRelaxed);
  }
  out.cross_socket_handoffs = shard.cross_socket_handoffs.load(kRelaxed);
  out.budget_overruns = shard.budget_overruns.load(kRelaxed);
  out.quarantines = shard.quarantines.load(kRelaxed);
  return out;
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

void LockProfileCounters::Add(const LockProfileCounters& other) {
  auto sum = std::bit_cast<CounterWords>(*this);
  const auto add = std::bit_cast<CounterWords>(other);
  for (std::size_t i = 0; i < kCounterWords; ++i) {
    sum[i] += add[i];
  }
  *this = std::bit_cast<LockProfileCounters>(sum);
}

LockProfileCounters LockProfileCounters::ClampedDelta(
    const LockProfileCounters& earlier) const {
  auto delta = std::bit_cast<CounterWords>(*this);
  const auto then = std::bit_cast<CounterWords>(earlier);
  for (std::size_t i = 0; i < kCounterWords; ++i) {
    delta[i] = delta[i] > then[i] ? delta[i] - then[i] : 0;
  }
  return std::bit_cast<LockProfileCounters>(delta);
}

std::size_t ShardedLockProfileStats::ThisThreadShard() {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

LockProfileSnapshot ShardedLockProfileStats::Snapshot() const {
  LockProfileSnapshot snap;
  snap.taken_at_ns = ClockNowNs();
  snap.timed_one_in = TimedOneIn();
  // One pass: each shard's counters are read back-to-back, so the skew is
  // the handful of ops in flight during the pass. It cannot be removed
  // without stopping the writers (the taps are deliberately lock-free), so
  // the clamps below restore the cross-field invariants consumers rely on.
  for (const AlignedStats& shard : shards_) {
    snap.Add(LoadCounters(shard.stats));
    snap.wait_ns.MergeFrom(shard.stats.wait_ns);
    snap.hold_ns.MergeFrom(shard.stats.hold_ns);
  }
  snap.contentions = std::min(snap.contentions, snap.acquisitions);
  snap.releases = std::min(snap.releases, snap.acquisitions);
  return snap;
}

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
  static_cast<LockProfileCounters&>(delta) = ClampedDelta(earlier);
  delta.taken_at_ns = taken_at_ns;
  delta.window_start_ns = earlier.taken_at_ns;
  delta.timed_one_in = timed_one_in;
  delta.wait_ns = wait_ns.DeltaSince(earlier.wait_ns);
  delta.hold_ns = hold_ns.DeltaSince(earlier.hold_ns);
  return delta;
}

std::string LockProfileSnapshot::Summary() const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "acq=%" PRIu64 " contended=%" PRIu64 " (%.1f%%) rel=%" PRIu64
                " wait[p50=%" PRIu64 "ns p99=%" PRIu64 "ns max=%" PRIu64
                "ns] hold[p50=%" PRIu64 "ns p99=%" PRIu64
                "ns] timed_one_in=%" PRIu32,
                acquisitions, contentions, 100.0 * ContentionRate(), releases,
                wait_ns.Percentile(50), wait_ns.Percentile(99), wait_ns.Max(),
                hold_ns.Percentile(50), hold_ns.Percentile(99), timed_one_in);
  std::string out = line;
  if (budget_overruns != 0 || quarantines != 0) {
    std::snprintf(line, sizeof(line),
                  " budget_overruns=%" PRIu64 " quarantines=%" PRIu64,
                  budget_overruns, quarantines);
    out += line;
  }
  return out;
}

void LockProfileSnapshot::AppendJson(JsonWriter& writer) const {
  writer.BeginObject();
  writer.NumberField("acquisitions", acquisitions);
  writer.NumberField("contentions", contentions);
  writer.NumberField("releases", releases);
  writer.NumberField("budget_overruns", budget_overruns);
  writer.NumberField("quarantines", quarantines);
  writer.Key("socket_acquisitions").BeginArray();
  for (const std::uint64_t slot : socket_acquisitions) {
    writer.Number(slot);
  }
  writer.EndArray();
  writer.NumberField("cross_socket_handoffs", cross_socket_handoffs);
  writer.NumberField("contention_rate", ContentionRate());
  writer.NumberField("timed_one_in", timed_one_in);
  writer.Key("wait_ns");
  wait_ns.AppendJson(writer);
  writer.Key("hold_ns");
  hold_ns.AppendJson(writer);
  writer.EndObject();
}

}  // namespace concord
