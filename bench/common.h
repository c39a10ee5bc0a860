// Shared helpers for the benchmark binaries.
//
// Two kinds of measurement live here:
//  - Sweep printing: paper-style tables (#threads vs ops/msec per flavour).
//  - Grant-order probe: a deterministic harness that builds a known waiter
//    queue on a real ShflLock and records the order in which the lock was
//    granted. Queue-order policies (priority boost, lock inheritance, SCL,
//    AMP) are about *who runs first*, which on a 1-core host is far better
//    observed directly than through noisy throughput numbers.

#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "src/base/time.h"
#include "src/sync/shfllock.h"
#include "src/topology/thread_context.h"

namespace concord {
namespace bench {

inline const std::vector<std::uint32_t>& PaperThreadSweep() {
  static const std::vector<std::uint32_t> sweep = {1,  2,  4,  8,  10, 20,
                                                   30, 40, 50, 60, 70, 80};
  return sweep;
}

// Sweep-table state: PrintRow() records every cell into the bench report
// under the table PrintHeader() opened, so the JSON artifact mirrors the
// printed tables without per-bench plumbing.
struct SweepTableState {
  std::string title;
  std::vector<std::string> cols;
  std::string unit;
};
inline SweepTableState& CurrentSweepTable() {
  static SweepTableState state;
  return state;
}

inline void PrintHeader(const char* title, const std::vector<std::string>& cols,
                        const char* unit = "ops_per_msec") {
  std::printf("\n=== %s ===\n", title);
  std::printf("%8s", "threads");
  for (const auto& col : cols) {
    std::printf(" %16s", col.c_str());
  }
  std::printf("\n");
  CurrentSweepTable() = {title, cols, unit};
}

inline void PrintRow(std::uint32_t threads, const std::vector<double>& values) {
  std::printf("%8u", threads);
  for (double v : values) {
    std::printf(" %16.1f", v);
  }
  std::printf("\n");
  const SweepTableState& table = CurrentSweepTable();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::string col =
        i < table.cols.size() ? table.cols[i] : "col" + std::to_string(i);
    ReportMetric(col, table.unit, values[i],
                 {{"table", table.title}, {"threads", std::to_string(threads)}});
  }
}

// One cell's repetitions: median, min and max.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

inline Spread SpreadOf(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  return {runs[runs.size() / 2], runs.front(), runs.back()};
}

// Reports the median under `name`, and the min and max under the same name
// with a "stat" label.
inline void ReportSpread(const std::string& name, const std::string& unit,
                         const Spread& spread,
                         const std::map<std::string, std::string>& labels) {
  ReportMetric(name, unit, spread.median, labels);
  for (const auto& [stat, value] :
       {std::pair<const char*, double>{"min", spread.min},
        {"max", spread.max}}) {
    auto stat_labels = labels;
    stat_labels["stat"] = stat;
    ReportMetric(name, unit, value, stat_labels);
  }
}

inline void SleepMs(std::uint64_t ms) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1'000'000);
  nanosleep(&ts, nullptr);
}

// Waits (sleeping) until `pred` holds or ~20s elapse.
template <typename Pred>
bool AwaitCondition(Pred pred) {
  const std::uint64_t deadline = MonotonicNowNs() + 20'000'000'000ull;
  while (!pred()) {
    if (MonotonicNowNs() > deadline) {
      return false;
    }
    SleepMs(1);
  }
  return true;
}

// --- grant-order probe --------------------------------------------------------

struct WaiterSpec {
  std::string group;          // reported bucket
  std::uint32_t vcpu = 0;     // virtual CPU to register on
  std::int32_t priority = 0;  // ThreadContext priority annotation
  std::uint64_t preset_cs_ewma_ns = 0;  // seed for SCL-style policies
  bool holds_other_lock = false;        // acquire a second lock first
};

struct GrantOrderResult {
  // Mean 1-based grant position per group, across rounds.
  std::map<std::string, double> mean_position;
  std::vector<std::vector<std::string>> orders;  // raw per-round grant order
};

// Builds the queue deterministically each round: the probe thread holds
// `lock`, waiters arrive in spec order (serialized by contended-count), the
// queue head gets time to shuffle, then the lock is released and the grant
// order recorded.
// `contended_count` must report how many waiters have hit the lock's slow
// path so far (e.g. Concord profiling stats); it serializes queue arrivals.
inline GrantOrderResult MeasureGrantOrder(
    ShflLock& lock, const std::vector<WaiterSpec>& specs, int rounds,
    const std::function<std::uint64_t()>& contended_count) {
  GrantOrderResult result;
  std::map<std::string, double> position_sum;
  std::map<std::string, int> position_count;

  for (int round = 0; round < rounds; ++round) {
    std::vector<std::string> order;
    std::mutex order_mu;
    ShflLock other_lock;  // for holds_other_lock waiters

    const std::uint64_t contended_base = contended_count();
    lock.Lock();
    std::vector<std::thread> threads;
    std::uint64_t expected = 0;
    for (const WaiterSpec& spec : specs) {
      threads.emplace_back([&, spec] {
        ThreadContext& ctx = ThreadRegistry::Global().RegisterCurrent(spec.vcpu);
        ctx.priority.store(spec.priority, std::memory_order_relaxed);
        if (spec.preset_cs_ewma_ns != 0) {
          ctx.cs_length_ewma_ns.store(spec.preset_cs_ewma_ns,
                                      std::memory_order_relaxed);
        }
        if (spec.holds_other_lock) {
          other_lock.Lock();
        }
        lock.Lock();
        {
          std::lock_guard<std::mutex> guard(order_mu);
          order.push_back(spec.group);
        }
        lock.Unlock();
        if (spec.holds_other_lock) {
          other_lock.Unlock();
        }
      });
      ++expected;
      AwaitCondition(
          [&] { return contended_count() >= contended_base + expected; });
      SleepMs(2);  // let the tapped thread finish enqueueing
    }
    SleepMs(30);  // head shuffles while we hold the lock
    lock.Unlock();
    for (auto& thread : threads) {
      thread.join();
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      position_sum[order[i]] += static_cast<double>(i + 1);
      position_count[order[i]] += 1;
    }
    result.orders.push_back(std::move(order));
  }

  for (const auto& [group, sum] : position_sum) {
    result.mean_position[group] = sum / position_count[group];
  }
  return result;
}

}  // namespace bench
}  // namespace concord

#endif  // BENCH_COMMON_H_
