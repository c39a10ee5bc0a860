// Figure 2(a): page_fault2 — ops/msec vs thread count for
// Stock / BRAVO / Concord-BRAVO.
//
// Part 1 regenerates the paper's 1-80-thread curves on the simulated
// 8-socket machine (see src/sim). Part 2 measures the same three
// configurations with real threads on the host's mini-VM subsystem
// (src/kernelsim/address_space.h) — absolute numbers are host-dependent,
// but the Concord-vs-precompiled *ratio* (the paper's claim: negligible
// overhead) is host-independent.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/kernelsim/address_space.h"
#include "src/sim/workloads.h"
#include "src/sync/bravo.h"

namespace concord {
namespace {

void RunSimPart() {
  auto rw_switch = MakeRwSwitchPolicy(RwMode::kReaderBias);
  CONCORD_CHECK(rw_switch.ok());
  CONCORD_CHECK(rw_switch->spec.VerifyAll().ok());
  const Program* mode_program =
      &rw_switch->spec.ChainFor(HookKind::kRwMode).programs.front();

  bench::PrintHeader("Fig 2(a) page_fault2 [simulated 8x10 machine, ops/msec]",
                     {"Stock", "BRAVO", "Concord-BRAVO"});
  for (std::uint32_t threads : bench::PaperThreadSweep()) {
    PageFaultParams params;
    params.threads = threads;
    params.duration_ns = 3'000'000;
    params.mode_program = mode_program;
    const double stock =
        SimPageFault(PageFaultFlavor::kStockNeutral, params).ops_per_msec;
    const double bravo = SimPageFault(PageFaultFlavor::kBravo, params).ops_per_msec;
    const double concord =
        SimPageFault(PageFaultFlavor::kConcordBravo, params).ops_per_msec;
    bench::PrintRow(threads, {stock, bravo, concord});
  }
}

// One page_fault2 iteration against the host address space.
template <typename AS>
void PageFaultIteration(AS& aspace, std::uint64_t pages) {
  const std::uint64_t addr = aspace.Mmap(pages * kPageSize);
  for (std::uint64_t p = 0; p < pages; ++p) {
    CONCORD_CHECK(aspace.HandlePageFault(addr + p * kPageSize).ok());
  }
  CONCORD_CHECK(aspace.Munmap(addr).ok());
}

template <typename AS>
double RunRealWorkload(AS& aspace, std::uint32_t threads, std::uint64_t ms) {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        PageFaultIteration(aspace, 32);
        ops.fetch_add(32, std::memory_order_relaxed);
      }
    });
  }
  bench::SleepMs(ms);
  stop.store(true);
  for (auto& worker : workers) {
    worker.join();
  }
  return static_cast<double>(ops.load()) / static_cast<double>(ms);
}

// One real cell's repetitions: median, min and max.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread SpreadOf(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  return {runs[runs.size() / 2], runs.front(), runs.back()};
}

constexpr char kRealTable[] =
    "Fig 2(a) page_fault2 [real threads on host, faults/msec]";

// Prints "median [min-max]" per cell and reports the median under the
// column's name, the min and max under the same name with a "stat" label.
void PrintSpreadRow(std::uint32_t threads, const std::vector<Spread>& cells,
                    const std::vector<std::string>& cols) {
  std::printf("%8u", threads);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Spread& cell = cells[i];
    const bool ratio = cols[i] == "Concord/BRAVO";
    char text[64];
    std::snprintf(text, sizeof(text),
                  ratio ? "%.2f [%.2f-%.2f]" : "%.0f [%.0f-%.0f]",
                  cell.median, cell.min, cell.max);
    std::printf(" %22s", text);
    const char* unit = ratio ? "ratio" : "ops_per_msec";
    const std::map<std::string, std::string> labels = {
        {"table", kRealTable}, {"threads", std::to_string(threads)}};
    bench::ReportMetric(cols[i], unit, cell.median, labels);
    for (const auto& [stat, value] :
         {std::pair<const char*, double>{"min", cell.min}, {"max", cell.max}}) {
      auto stat_labels = labels;
      stat_labels["stat"] = stat;
      bench::ReportMetric(cols[i], unit, value, stat_labels);
    }
  }
  std::printf("\n");
}

// One 400-ms cell spread by about +-14% from run to run, so each cell runs
// kReps shorter times, the three flavours interleaved within a repetition,
// and the table shows the median with its min-max. Concord/BRAVO is the
// median of the per-repetition ratios.
void RunRealPart() {
  constexpr std::uint64_t kMs = 80;
  constexpr int kReps = 5;
  const std::vector<std::string> cols = {"Stock", "BRAVO", "Concord-BRAVO",
                                         "Concord/BRAVO"};
  std::printf("\n=== %s, median [min-max] of %d x %llu ms ===\n",
              kRealTable, kReps, static_cast<unsigned long long>(kMs));
  std::printf("%8s", "threads");
  for (const std::string& col : cols) {
    std::printf(" %22s", col.c_str());
  }
  std::printf("\n");
  for (std::uint32_t threads : {1u, 2u, 4u}) {
    std::vector<std::vector<double>> runs(cols.size());
    for (int rep = 0; rep < kReps; ++rep) {
      AddressSpace<NeutralRwLock> stock_as;
      runs[0].push_back(RunRealWorkload(stock_as, threads, kMs));

      AddressSpace<BravoLock<NeutralRwLock>> bravo_as;
      bravo_as.mmap_sem().SetDefaultMode(RwMode::kReaderBias);
      runs[1].push_back(RunRealWorkload(bravo_as, threads, kMs));

      AddressSpace<BravoLock<NeutralRwLock>> concord_as;
      Concord& concord = Concord::Global();
      const std::uint64_t id =
          concord.RegisterRwLock(concord_as.mmap_sem(), "mmap_sem", "vm");
      auto policy = MakeRwSwitchPolicy(RwMode::kReaderBias);
      CONCORD_CHECK(policy.ok());
      CONCORD_CHECK(concord.Attach(id, std::move(policy->spec)).ok());
      runs[2].push_back(RunRealWorkload(concord_as, threads, kMs));
      CONCORD_CHECK(concord.Unregister(id).ok());

      runs[3].push_back(runs[2].back() / runs[1].back());
    }
    std::vector<Spread> cells;
    for (const std::vector<double>& cell : runs) {
      cells.push_back(SpreadOf(cell));
    }
    PrintSpreadRow(threads, cells, cols);
  }
  std::printf("(ratio Concord-BRAVO / BRAVO is the paper's overhead claim)\n");
}

}  // namespace
}  // namespace concord

int main() {
  concord::bench::ReportInit("fig2a_pagefault");
  concord::RunSimPart();
  concord::RunRealPart();
  concord::bench::ReportWrite();
  return 0;
}
