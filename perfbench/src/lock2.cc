// lock2: Fig. 2(b) with the control plane live. Two workers on different
// virtual sockets each repeat FileLock + FileUnlock on their own file of a
// ProcLockTable<ShflLock>. The lock spins (its default mode), carries the
// JIT-compiled NUMA policy and has profiling on, and a control thread runs
// autotune's canary loop against it: sleep 10 ms, Snapshot, re-Attach. The
// lock is saturated, so time goes to the contended path, and the control
// thread drives the RCU writer side, the verifier and the JIT under load.

#include <memory>
#include <vector>

#include "src/calibrate.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/control.h"
#include "src/kernelsim/proc_locks.h"
#include "src/sync/shfllock.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using concord::ShflLock;

constexpr int kWorkers = 2;
constexpr std::uint32_t kWorkerVcpus[kWorkers] = {0, 10};  // sockets 0 and 1
constexpr std::uint32_t kControlVcpu = 20;
constexpr std::uint32_t kFiles = 1024;
constexpr std::uint32_t kLatencyOneIn = 32;  // cycles timed, untraced
constexpr std::uint32_t kTraceOneIn = 512;   // cycles traced
constexpr std::size_t kSamplesPerSlice = 1 << 14;
constexpr std::size_t kSpanCapacity = 1 << 17;
constexpr std::size_t kControlSpanCapacity = 1 << 15;

enum Purpose : std::uint64_t { kFileChoice = 1, kSampler };

// Each worker's file: distinct, drawn from the table's files.
std::vector<std::uint32_t> WorkerFiles(std::uint64_t seed) {
  SplitMix mix(StreamSeed(seed, kFileChoice));
  std::vector<std::uint32_t> files;
  while (files.size() < kWorkers) {
    const auto file = static_cast<std::uint32_t>(mix.Below(kFiles));
    bool taken = false;
    for (std::uint32_t f : files) {
      taken = taken || f == file;
    }
    if (!taken) {
      files.push_back(file);
    }
  }
  return files;
}

struct Worker {
  Worker(bool traced, std::uint16_t index, double seconds)
      : latency(traced ? 0 : kSamplesPerSlice, seconds),
        spans(index, traced ? kSpanCapacity : 0) {}
  SliceSamples latency;
  SpanBuffer spans;
  WorkerTally tally;
};

template <typename LockT, bool kTraced>
void Run(const Options& options, Report& report) {
  const std::vector<std::uint32_t> files = WorkerFiles(options.seed);
  std::vector<std::unique_ptr<Worker>> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.push_back(std::make_unique<Worker>(kTraced, w, options.seconds));
  }
  SpanBuffer control_spans(kWorkers, kTraced ? kControlSpanCapacity : 0);

  // --- set-up -----------------------------------------------------------------
  StampSetupStart(report);
  concord::Concord& concord = concord::Concord::Global();
  RequireJit();
  auto table = std::make_unique<concord::ProcLockTable<LockT>>(kFiles);
  ShflLock& lock = InnerLock(table->global_lock());
  const ScopedRegistration registration(
      concord.RegisterShflLock(lock, "perfbench.lock2", "perfbench"));
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
    for (int w = 0; w < kWorkers; ++w) {
      threads.Spawn(kWorkerVcpus[w], [&, w] {
        Worker& worker = *workers[w];
        const std::uint32_t file = files[w];
        const auto owner = static_cast<std::uint32_t>(w + 1);
        OpSampler sampler(StreamSeed(options.seed, kSampler + w),
                          kTraced ? kTraceOneIn : kLatencyOneIn);
        std::uint64_t ops = 0;
        std::uint64_t failed = 0;
        while (window.Running()) {
          for (int i = 0; i < 16; ++i, ++ops) {
            bool locked;
            bool unlocked;
            if (!sampler.Next()) {
              locked = table->FileLock(file, owner);
              unlocked = table->FileUnlock(file, owner);
            } else if constexpr (kTraced) {
              if (worker.spans.HasRoom(8)) {
                {
                  OpScope scope(worker.spans, SpanKind::kKernelsimOp, ops);
                  locked = table->FileLock(file, owner);
                }
                OpScope scope(worker.spans, SpanKind::kKernelsimOp, ops);
                unlocked = table->FileUnlock(file, owner);
              } else {
                locked = table->FileLock(file, owner);
                unlocked = table->FileUnlock(file, owner);
              }
            } else {
              const std::uint64_t start = Ticks();
              locked = table->FileLock(file, owner);
              unlocked = table->FileUnlock(file, owner);
              worker.latency.Add(window.slice(), Ticks() - start);
            }
            failed += (locked ? 0 : 1) + (unlocked ? 0 : 1);
          }
          worker.tally.Publish(ops);
        }
        worker.tally.ops = ops;
        worker.tally.failed_calls = failed;
      });
    }
    threads.Spawn(kControlVcpu, [&] {
      control.RunLive(window, kTraced ? &control_spans : nullptr);
    });
    window.WaitReady(threads.size());
    window.Start();
    if (!options.setup_only) {
      window.SleepFor(options.seconds, [&] {
        std::uint64_t done = 0;
        for (const auto& worker : workers) {
          done += worker->tally.progress.load(std::memory_order_relaxed);
        }
        return done;
      });
    }
    threads.JoinAll();
  }
  window.Finish();
  ReportWindowInfo(window, report);
  control.ThrowIfFatal();
  control.Report(report);
  ReportPeakRss(report);
  if (options.setup_only) {
    return;
  }

  // --- checks -----------------------------------------------------------------
  std::uint64_t ops = 0;
  for (const auto& worker : workers) {
    ops += worker->tally.ops;
    report.failed_calls += worker->tally.failed_calls;
  }
  report.attempted = ops;
  const ShflCounters after(lock);
  const std::uint64_t acquisitions = after.acquisitions - before.acquisitions;
  const std::uint64_t profiled_acq = stats.Acquisitions() - profiled_acq0;
  const std::uint64_t profiled_rel = stats.Releases() - profiled_rel0;
  report.Check("profiler_counts",
               profiled_acq == profiled_rel && profiled_acq == acquisitions &&
                   !options.force_check_failure,
               "profiler acquisitions " + std::to_string(profiled_acq) +
                   ", releases " + std::to_string(profiled_rel) +
                   ", lock acquisitions " + std::to_string(acquisitions));
  const std::uint64_t live = table->live_locks();
  report.Check("live_locks", live == 0, std::to_string(live) + " file locks left held");
  report.Add("sync.acquisitions", static_cast<double>(acquisitions), "count", ops,
             "acquisitions() delta over the window");

  const double ns_per_tick = window.scale().ns_per_tick();
  std::vector<const SliceSamples*> latency;
  std::vector<const SpanBuffer*> spans;
  for (const auto& worker : workers) {
    latency.push_back(&worker->latency);
    spans.push_back(&worker->spans);
  }
  ReportThroughput(window, ops, latency, report);
  control.ReportAttachMedian(ns_per_tick, "live canary attaches under load", report);
  if constexpr (kTraced) {
    ReportSpans(Summarize(spans), ns_per_tick, "window", report);
    ReportSpans(Summarize({&control_spans}), ns_per_tick,
                "live canary loop under load", report);
    ReportShflCounters(before, after, ops, "window", report);
    ReportContention(profiled_acq, stats.Contentions() - contentions0, "window",
                     report);
    ReportProcess(window, ops, report);
    spans.push_back(&control_spans);
    WriteSpanFile(options, window, spans, report);
    Calibrate(window.scale(), id, report);
  }
}

}  // namespace

void RunLock2(const Options& options, Report& report) {
  if (options.trace) {
    Run<TracedMutex<ShflLock>, true>(options, report);
  } else {
    Run<ShflLock, false>(options, report);
  }
}

std::uint64_t Lock2InputDigest(std::uint64_t seed) {
  Digest digest;
  for (std::uint32_t file : WorkerFiles(seed)) {
    digest.Add(file);
  }
  for (int w = 0; w < kWorkers; ++w) {
    digest.Add(StreamSeed(seed, kSampler + w));
  }
  return digest.value();
}

}  // namespace perfbench
