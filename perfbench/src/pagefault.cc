// pagefault: Fig. 2(a). Two workers each loop Mmap of 32 pages,
// HandlePageFault on every page in a seeded order, then Munmap, on an
// AddressSpace<BravoLock<NeutralRwLock>>. The lock carries the JIT-compiled
// rw_mode policy with its knob at neutral, so the policy program runs on
// every read acquisition; profiling is off. Reads beside writes exercise the
// readers-writer half of every dispatch.
//
// The knob stays neutral because BravoLock::ReadLock re-enables reader bias
// before it holds the underlying read lock, which lets a reader take the fast
// path while a writer is inside Munmap.

#include <memory>
#include <vector>

#include "src/calibrate.h"
#include "src/concord/concord.h"
#include "src/control.h"
#include "src/kernelsim/address_space.h"
#include "src/sync/bravo.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using MmapSem = concord::BravoLock<concord::NeutralRwLock>;

constexpr int kWorkers = 2;
constexpr std::uint32_t kWorkerVcpus[kWorkers] = {0, 10};
constexpr std::uint64_t kPages = 32;
constexpr std::uint64_t kOrders = 64;       // fault orders per worker, cycled
constexpr std::uint32_t kLatencyOneIn = 128;  // faults timed, untraced
constexpr std::uint32_t kTraceOneIn = 2048;  // kernelsim calls traced
constexpr std::size_t kSamplesPerSlice = 1 << 14;
constexpr std::size_t kSpanCapacity = 1 << 17;

enum Purpose : std::uint64_t { kOrder = 1, kSampler = 16 };

// Fault offsets for one worker: kOrders shuffled page orders, each entry a
// page's offset in the mapping plus a seeded byte within the page.
std::vector<std::uint64_t> FaultOffsets(std::uint64_t seed, int worker) {
  SplitMix mix(StreamSeed(seed, kOrder + worker));
  std::vector<std::uint64_t> offsets;
  offsets.reserve(kOrders * kPages);
  for (std::uint64_t o = 0; o < kOrders; ++o) {
    std::uint64_t pages[kPages];
    for (std::uint64_t p = 0; p < kPages; ++p) {
      pages[p] = p;
    }
    for (std::uint64_t p = kPages - 1; p > 0; --p) {
      std::swap(pages[p], pages[mix.Below(p + 1)]);
    }
    for (std::uint64_t page : pages) {
      offsets.push_back(page * concord::kPageSize + mix.Below(concord::kPageSize));
    }
  }
  return offsets;
}

struct Worker {
  Worker(bool traced, std::uint16_t index, double seconds,
         std::vector<std::uint64_t> fault_offsets)
      : offsets(std::move(fault_offsets)),
        latency(traced ? 0 : kSamplesPerSlice, seconds),
        spans(index, traced ? kSpanCapacity : 0) {}
  std::vector<std::uint64_t> offsets;
  SliceSamples latency;
  SpanBuffer spans;
  WorkerTally tally;
};

template <typename LockT, bool kTraced>
void Run(const Options& options, Report& report) {
  std::vector<std::unique_ptr<Worker>> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.push_back(
        std::make_unique<Worker>(kTraced, w, options.seconds,
                                 FaultOffsets(options.seed, w)));
  }

  // --- set-up -----------------------------------------------------------------
  StampSetupStart(report);
  concord::Concord& concord = concord::Concord::Global();
  RequireJit();
  auto aspace = std::make_unique<concord::AddressSpace<LockT>>();
  MmapSem& lock = InnerLock(aspace->mmap_sem());
  const ScopedRegistration registration(
      concord.RegisterRwLock(lock, "perfbench.mmap_sem", "perfbench"));
  const std::uint64_t id = registration.id();
  ControlPlane control(id, NeutralRwPolicy);
  control.Attach(nullptr, 0);
  const std::uint64_t reads0 = lock.fast_reads() + lock.slow_reads();

  Window window;
  {
    ThreadGroup threads(window);
    for (int w = 0; w < kWorkers; ++w) {
      threads.Spawn(kWorkerVcpus[w], [&, w] {
        Worker& worker = *workers[w];
        auto& as = *aspace;
        OpSampler sampler(StreamSeed(options.seed, kSampler + w),
                          kTraced ? kTraceOneIn : kLatencyOneIn);
        std::uint64_t faults = 0;
        std::uint64_t failed = 0;
        std::uint64_t calls = 0;
        // One kernelsim call, traced when sampled (traced runs only); each
        // call is its own op for the spans.
        auto call = [&](auto&& body) {
          if constexpr (kTraced) {
            const std::uint64_t op_id = calls++;
            if (sampler.Next() && worker.spans.HasRoom(4)) {
              OpScope scope(worker.spans, SpanKind::kKernelsimOp, op_id);
              return body();
            }
          }
          return body();
        };
        for (std::uint64_t iteration = 0; window.Running(); ++iteration) {
          const std::uint64_t* order =
              &worker.offsets[(iteration % kOrders) * kPages];
          const std::uint64_t addr =
              call([&] { return as.Mmap(kPages * concord::kPageSize); });
          for (std::uint64_t p = 0; p < kPages; ++p, ++faults) {
            bool ok;
            if (!kTraced && sampler.Next()) {
              const std::uint64_t start = Ticks();
              ok = as.HandlePageFault(addr + order[p]).ok();
              worker.latency.Add(window.slice(), Ticks() - start);
            } else {
              ok = call([&] { return as.HandlePageFault(addr + order[p]).ok(); });
            }
            failed += ok ? 0 : 1;
          }
          failed += call([&] { return as.Munmap(addr).ok(); }) ? 0 : 1;
          worker.tally.Publish(faults);
        }
        worker.tally.ops = faults;
        worker.tally.failed_calls = failed;
      });
    }
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
  const double ns_per_tick = window.scale().ns_per_tick();
  // The canary loop snapshots profiler stats, which the window ran without.
  if (!concord.EnableProfiling(id).ok()) {
    throw FatalError{"EnableProfiling failed"};
  }
  SpanBuffer control_spans(kWorkers, kTraced ? 8 * kIdleControlIterations : 0);
  control.RunIdle(kTraced ? &control_spans : nullptr);
  const char* idle = "canary loop on the idle lock after the window";
  control.ReportAttachMedian(ns_per_tick, idle, report);
  control.Report(report);
  ReportPeakRss(report);
  if (options.setup_only) {
    return;
  }

  // --- checks -----------------------------------------------------------------
  std::uint64_t faults = 0;
  for (const auto& worker : workers) {
    faults += worker->tally.ops;
    report.failed_calls += worker->tally.failed_calls;
  }
  report.attempted = faults;
  const std::uint64_t reads = lock.fast_reads() + lock.slow_reads() - reads0;
  const std::uint64_t served = aspace->faults_served();
  report.Check("faults_served", served == faults && !options.force_check_failure,
               std::to_string(served) + " pages installed for " +
                   std::to_string(faults) + " faults");
  report.Check("read_acquisitions", reads == faults,
               std::to_string(reads) + " read acquisitions for " +
                   std::to_string(faults) + " faults");
  const std::size_t vmas = aspace->vma_count();
  report.Check("vma_count", vmas == 0, std::to_string(vmas) + " VMAs left mapped");
  report.Add("sync.acquisitions", static_cast<double>(reads), "count", faults,
             "read acquisitions (fast_reads + slow_reads) over the window");

  std::vector<const SliceSamples*> latency;
  std::vector<const SpanBuffer*> spans;
  for (const auto& worker : workers) {
    latency.push_back(&worker->latency);
    spans.push_back(&worker->spans);
  }
  ReportThroughput(window, faults, latency, report);
  if constexpr (kTraced) {
    ReportSpans(Summarize(spans), ns_per_tick, "window", report);
    ReportProcess(window, faults, report);
    ReportSpans(Summarize({&control_spans}), ns_per_tick, idle, report);
    spans.push_back(&control_spans);
    WriteSpanFile(options, window, spans, report);
    Calibrate(window.scale(), id, report);
  }
}

}  // namespace

void RunPagefault(const Options& options, Report& report) {
  if (options.trace) {
    Run<TracedRwLock<MmapSem>, true>(options, report);
  } else {
    Run<MmapSem, false>(options, report);
  }
}

std::uint64_t PagefaultInputDigest(std::uint64_t seed) {
  Digest digest;
  for (int w = 0; w < kWorkers; ++w) {
    for (std::uint64_t offset : FaultOffsets(seed, w)) {
      digest.Add(offset);
    }
    digest.Add(StreamSeed(seed, kSampler + w));
  }
  return digest.value();
}

}  // namespace perfbench
