// hashtable: Fig. 2(c) at its worst case. One worker runs a seeded
// 80/10/10 lookup/insert/erase mix over 65 536 keys on a half-full
// GlobalLockHashTable<ShflLock> whose lock is registered, carries the
// JIT-compiled NUMA-grouping policy and has profiling on: the state autotune
// leaves every enrolled lock in. The lock never contends and the critical
// section is a few pointer hops, so per-acquisition costs dominate each op.

#include <memory>
#include <vector>

#include "src/calibrate.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/control.h"
#include "src/kernelsim/hashtable.h"
#include "src/sync/shfllock.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using concord::ShflLock;

constexpr std::uint64_t kKeys = 1u << 16;
constexpr std::uint32_t kLatencyOneIn = 256;  // ops timed, untraced
constexpr std::uint32_t kTraceOneIn = 4096;  // ops traced
constexpr std::size_t kSamplesPerSlice = 1 << 14;
constexpr std::size_t kSpanCapacity = 1 << 17;
constexpr std::uint64_t kDigestOps = 1 << 16;
constexpr std::uint64_t kMissing = ~0ull;  // Lookup miss; values are < 2^32

enum Purpose : std::uint64_t { kPrefill = 1, kStream, kSampler };

enum class OpKind { kLookup, kInsert, kErase };
struct Op {
  OpKind kind;
  std::uint64_t key;
  std::uint64_t value;
};

// 80% lookups, 10% inserts, 10% erases, uniform keys.
inline Op DecodeOp(std::uint64_t word) {
  const std::uint64_t dice = (((word >> 16) & 0xffff) * 100) >> 16;
  const OpKind kind = dice < 80   ? OpKind::kLookup
                      : dice < 90 ? OpKind::kInsert
                                  : OpKind::kErase;
  return {kind, word & (kKeys - 1), word >> 32};
}

// The half of the key space present after set-up, in insertion order.
std::vector<std::uint64_t> PrefillKeys(std::uint64_t seed) {
  std::vector<std::uint64_t> keys(kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    keys[k] = k;
  }
  SplitMix mix(StreamSeed(seed, kPrefill));
  for (std::uint64_t i = kKeys - 1; i > 0; --i) {
    std::swap(keys[i], keys[mix.Below(i + 1)]);
  }
  keys.resize(kKeys / 2);
  return keys;
}

inline std::uint64_t PrefillValue(std::uint64_t key) { return key * 2654435761u >> 8; }

template <typename Table>
inline std::uint64_t Apply(Table& table, const Op& op) {
  switch (op.kind) {
    case OpKind::kLookup: {
      std::uint64_t value = 0;
      return table.Lookup(op.key, &value) ? value : kMissing;
    }
    case OpKind::kInsert:
      return table.Insert(op.key, op.value) ? 1 : 0;
    case OpKind::kErase:
      return table.Erase(op.key) ? 1 : 0;
  }
  return 0;
}

// The reference the run is checked against: the same operations on a
// direct-indexed array.
class ReferenceSet {
 public:
  bool Lookup(std::uint64_t key, std::uint64_t* value) const {
    *value = values_[key];
    return present_[key];
  }
  bool Insert(std::uint64_t key, std::uint64_t value) {
    if (present_[key]) {
      return false;
    }
    present_[key] = true;
    values_[key] = value;
    ++size_;
    return true;
  }
  bool Erase(std::uint64_t key) {
    if (!present_[key]) {
      return false;
    }
    present_[key] = false;
    --size_;
    return true;
  }
  std::uint64_t size() const { return size_; }

 private:
  std::vector<bool> present_ = std::vector<bool>(kKeys, false);
  std::vector<std::uint64_t> values_ = std::vector<std::uint64_t>(kKeys, 0);
  std::uint64_t size_ = 0;
};

struct Replay {
  std::uint64_t digest;
  std::uint64_t size;
};

Replay ReplayReference(std::uint64_t seed, std::uint64_t ops) {
  ReferenceSet reference;
  for (std::uint64_t key : PrefillKeys(seed)) {
    reference.Insert(key, PrefillValue(key));
  }
  SplitMix stream(StreamSeed(seed, kStream));
  Digest digest;
  for (std::uint64_t i = 0; i < ops; ++i) {
    digest.Add(Apply(reference, DecodeOp(stream.Next())));
  }
  return {digest.value(), reference.size()};
}

template <typename LockT, bool kTraced>
void Run(const Options& options, Report& report) {
  const std::vector<std::uint64_t> prefill = PrefillKeys(options.seed);
  SliceSamples latency(kTraced ? 0 : kSamplesPerSlice, options.seconds);
  SpanBuffer spans(0, kTraced ? kSpanCapacity : 0);
  WorkerTally tally;
  std::uint64_t digest = 0;

  // --- set-up -----------------------------------------------------------------
  StampSetupStart(report);
  concord::Concord& concord = concord::Concord::Global();
  RequireJit();
  auto table = std::make_unique<concord::GlobalLockHashTable<LockT>>();
  for (std::uint64_t key : prefill) {
    table->Insert(key, PrefillValue(key));
  }
  ShflLock& lock = InnerLock(table->global_lock());
  const ScopedRegistration registration(
      concord.RegisterShflLock(lock, "perfbench.hashtable", "perfbench"));
  const std::uint64_t id = registration.id();
  ControlPlane control(id, concord::MakeNumaGroupingPolicy);
  control.Attach(nullptr, 0);
  if (!concord.EnableProfiling(id).ok()) {
    throw FatalError{"EnableProfiling failed"};
  }
  const concord::ShardedLockProfileStats& stats = *concord.Stats(id);
  const ShflCounters before(lock);
  const std::uint64_t profiled_acq0 = stats.Acquisitions();
  const std::uint64_t profiled_rel0 = stats.Releases();
  const std::uint64_t contentions0 = stats.Contentions();

  Window window;
  {
    ThreadGroup threads(window);
    threads.Spawn(0, [&] {
      SplitMix stream(StreamSeed(options.seed, kStream));
      OpSampler sampler(StreamSeed(options.seed, kSampler),
                        kTraced ? kTraceOneIn : kLatencyOneIn);
      Digest results;
      std::uint64_t ops = 0;
      while (window.Running()) {
        for (int i = 0; i < 16; ++i, ++ops) {
          const Op op = DecodeOp(stream.Next());
          std::uint64_t outcome;
          if (!sampler.Next()) {
            outcome = Apply(*table, op);
          } else if constexpr (kTraced) {
            if (spans.HasRoom(4)) {
              OpScope scope(spans, SpanKind::kKernelsimOp, ops);
              outcome = Apply(*table, op);
            } else {
              outcome = Apply(*table, op);
            }
          } else {
            const std::uint64_t start = Ticks();
            outcome = Apply(*table, op);
            latency.Add(window.slice(), Ticks() - start);
          }
          results.Add(outcome);
        }
        tally.Publish(ops);
      }
      tally.ops = ops;
      digest = results.value();
    });
    window.WaitReady(threads.size());
    window.Start();
    if (!options.setup_only) {
      window.SleepFor(options.seconds, [&] {
        return tally.progress.load(std::memory_order_relaxed);
      });
    }
    threads.JoinAll();
  }
  window.Finish();
  ReportWindowInfo(window, report);
  const double ns_per_tick = window.scale().ns_per_tick();
  SpanBuffer control_spans(1, kTraced ? 8 * kIdleControlIterations : 0);
  control.RunIdle(kTraced ? &control_spans : nullptr);
  const char* idle = "canary loop on the idle lock after the window";
  control.ReportAttachMedian(ns_per_tick, idle, report);
  control.Report(report);
  ReportPeakRss(report);
  if (options.setup_only) {
    return;
  }

  // --- checks -----------------------------------------------------------------
  const std::uint64_t ops = tally.ops;
  report.attempted = ops;
  const ShflCounters after(lock);
  const std::uint64_t acquisitions = after.acquisitions - before.acquisitions;
  const std::uint64_t profiled_acq = stats.Acquisitions() - profiled_acq0;
  const std::uint64_t profiled_rel = stats.Releases() - profiled_rel0;
  report.Check("profiler_counts",
               profiled_acq == profiled_rel && profiled_acq == acquisitions,
               "profiler acquisitions " + std::to_string(profiled_acq) +
                   ", releases " + std::to_string(profiled_rel) +
                   ", lock acquisitions " + std::to_string(acquisitions));
  const Replay expected = ReplayReference(options.seed, ops);
  const std::uint64_t observed_digest =
      options.force_check_failure ? ~expected.digest : digest;
  report.Check("result_digest", observed_digest == expected.digest,
               "digest of " + std::to_string(ops) + " op results vs reference replay");
  const std::uint64_t size = table->Size();
  report.Check("final_size", size == expected.size,
               "table " + std::to_string(size) + ", reference " +
                   std::to_string(expected.size));
  report.Add("sync.acquisitions", static_cast<double>(acquisitions), "count", ops,
             "acquisitions() delta over the window");

  ReportThroughput(window, ops, {&latency}, report);
  if constexpr (kTraced) {
    ReportSpans(Summarize({&spans}), ns_per_tick, "window", report);
    ReportShflCounters(before, after, ops, "window", report);
    ReportContention(profiled_acq, stats.Contentions() - contentions0, "window",
                     report);
    ReportProcess(window, ops, report);
    ReportSpans(Summarize({&control_spans}), ns_per_tick, idle, report);
    WriteSpanFile(options, window, {&spans, &control_spans}, report);
    Calibrate(window.scale(), id, report);
  }
}

}  // namespace

void RunHashtable(const Options& options, Report& report) {
  if (options.trace) {
    Run<TracedMutex<ShflLock>, true>(options, report);
  } else {
    Run<ShflLock, false>(options, report);
  }
}

std::uint64_t HashtableInputDigest(std::uint64_t seed) {
  Digest digest;
  for (std::uint64_t key : PrefillKeys(seed)) {
    digest.Add(key);
  }
  SplitMix stream(StreamSeed(seed, kStream));
  for (std::uint64_t i = 0; i < kDigestOps; ++i) {
    digest.Add(stream.Next());
  }
  digest.Add(StreamSeed(seed, kSampler));
  return digest.value();
}

}  // namespace perfbench
