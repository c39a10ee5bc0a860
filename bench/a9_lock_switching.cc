// A9: live lock switching (§3.1.1) — two experiments:
//  1. BravoLock readers run continuously while userspace flips the attached
//     rw_mode policy's knob between reader-bias, neutral and writer-only;
//     the fast/slow path counters show the lock actually changing flavour
//     mid-flight, with throughput per phase.
//  2. A ShflLock is attach/detach-churned while writers hammer it; the
//     throughput cost of a patch cycle (RCU swap + grace period) is
//     reported per switch.

#include <atomic>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/common.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/sync/bravo.h"

namespace concord {

// The five-phase cycle runs kReps times, each with fresh reader threads. A
// run's task ids decide which readers share a visible-readers slot line, and
// three spinning readers hand NeutralRwLock's write lock over unevenly, so a
// single run's phases are bimodal. Each phase reports the median [min-max] of
// its repetitions for reads/msec and for its fast and slow reads.
constexpr int kReps = 5;
constexpr std::uint64_t kPhaseMs = 40;

namespace {

void RunRwSwitchExperiment() {
  static BravoLock<NeutralRwLock> lock;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterRwLock(lock, "a9_rw", "bench");
  auto policy = MakeRwSwitchPolicy(RwMode::kNeutral);
  CONCORD_CHECK(policy.ok());
  auto knobs = policy->knobs;
  CONCORD_CHECK(concord.Attach(id, std::move(policy->spec)).ok());

  struct Phase {
    const char* name;
    RwMode mode;
  };
  const Phase phases[] = {{"neutral", RwMode::kNeutral},
                          {"reader-bias", RwMode::kReaderBias},
                          {"neutral", RwMode::kNeutral},
                          {"reader-bias", RwMode::kReaderBias},
                          {"writer-only", RwMode::kWriterOnly}};
  constexpr std::size_t kPhases = std::size(phases);
  // Per phase, one value per repetition.
  std::vector<double> rates[kPhases];
  std::vector<double> fast_reads[kPhases];
  std::vector<double> slow_reads[kPhases];
  for (int rep = 0; rep < kReps; ++rep) {
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reads{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          for (int i = 0; i < 64; ++i) {
            lock.ReadLock();
            lock.ReadUnlock();
          }
          reads.fetch_add(64, std::memory_order_relaxed);
        }
      });
    }
    for (std::size_t p = 0; p < kPhases; ++p) {
      CONCORD_CHECK(
          knobs->UpdateTyped(std::uint32_t{0},
                             static_cast<std::uint64_t>(phases[p].mode))
              .ok());
      const std::uint64_t reads_before = reads.load();
      const std::uint64_t fast_before = lock.fast_reads();
      const std::uint64_t slow_before = lock.slow_reads();
      bench::SleepMs(kPhaseMs);
      rates[p].push_back(static_cast<double>(reads.load() - reads_before) /
                         static_cast<double>(kPhaseMs));
      fast_reads[p].push_back(
          static_cast<double>(lock.fast_reads() - fast_before));
      slow_reads[p].push_back(
          static_cast<double>(lock.slow_reads() - slow_before));
    }
    stop.store(true);
    for (auto& reader : readers) {
      reader.join();
    }
  }

  std::printf(
      "\n=== A9.1: live rw-mode switching [3 reader threads], median "
      "[min-max] of %d x %llu ms ===\n",
      kReps, static_cast<unsigned long long>(kPhaseMs));
  std::printf("%14s %22s %26s %26s\n", "phase", "reads/msec", "fast reads",
              "slow reads");
  for (std::size_t p = 0; p < kPhases; ++p) {
    const std::map<std::string, std::string> labels = {
        {"phase", std::to_string(p)}, {"mode", phases[p].name}};
    std::printf("%14s", phases[p].name);
    for (const auto& [name, unit, runs] :
         {std::tuple<const char*, const char*, const std::vector<double>*>{
              "rw_switch_reads", "reads_per_msec", &rates[p]},
          {"rw_switch_fast_reads", "reads", &fast_reads[p]},
          {"rw_switch_slow_reads", "reads", &slow_reads[p]}}) {
      const bench::Spread spread = bench::SpreadOf(*runs);
      char text[64];
      std::snprintf(text, sizeof(text), "%.0f [%.0f-%.0f]", spread.median,
                    spread.min, spread.max);
      std::printf(" %*s", runs == &rates[p] ? 22 : 26, text);
      bench::ReportSpread(name, unit, spread, labels);
    }
    std::printf("\n");
  }
  CONCORD_CHECK(concord.Unregister(id).ok());
}

void RunAttachChurnExperiment() {
  static ShflLock lock;
  lock.SetBlocking(true);  // spin-then-park: sane under host oversubscription
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "a9_shfl", "bench");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 64; ++i) {
          ShflGuard guard(lock);
        }
        ops.fetch_add(64, std::memory_order_relaxed);
      }
    });
  }

  // Phase A: no switching.
  const std::uint64_t quiet_before = ops.load();
  bench::SleepMs(300);
  const double quiet_rate = static_cast<double>(ops.load() - quiet_before) / 300.0;

  // Control: the same 10ms wake-up pattern without any patching, so
  // scheduler perturbation from the control thread is attributed separately
  // from the patch cycles themselves.
  const std::uint64_t control_before = ops.load();
  const std::uint64_t control_start = MonotonicNowNs();
  while (MonotonicNowNs() - control_start < 300'000'000ull) {
    bench::SleepMs(10);
  }
  const double control_ms =
      static_cast<double>(MonotonicNowNs() - control_start) / 1'000'000.0;
  const double control_rate =
      static_cast<double>(ops.load() - control_before) / control_ms;

  // Phase B: live re-tuning at a realistic rate (one patch cycle / 10ms).
  // Each Attach/Detach includes verification, the RCU pointer swap and a
  // full grace period; per-cycle latency is reported alongside throughput.
  std::uint64_t switches = 0;
  std::uint64_t switch_ns_total = 0;
  const std::uint64_t churn_before = ops.load();
  const std::uint64_t churn_start = MonotonicNowNs();
  while (MonotonicNowNs() - churn_start < 300'000'000ull) {
    const std::uint64_t t0 = MonotonicNowNs();
    auto policy = MakeNumaGroupingPolicy();
    CONCORD_CHECK(policy.ok());
    CONCORD_CHECK(concord.Attach(id, std::move(policy->spec)).ok());
    CONCORD_CHECK(concord.Detach(id).ok());
    switch_ns_total += MonotonicNowNs() - t0;
    switches += 2;
    bench::SleepMs(10);
  }
  const double churn_ms =
      static_cast<double>(MonotonicNowNs() - churn_start) / 1'000'000.0;
  const double churn_rate =
      static_cast<double>(ops.load() - churn_before) / churn_ms;

  stop.store(true);
  for (auto& worker : workers) {
    worker.join();
  }
  CONCORD_CHECK(concord.Unregister(id).ok());

  std::printf("\n=== A9.2: live re-patching under load [3 writer threads, one "
              "attach+detach per 10ms] ===\n");
  std::printf("%24s %14.1f ops/msec\n", "no switching", quiet_rate);
  std::printf("%24s %14.1f ops/msec (10ms wakeups, no patching)\n",
              "control", control_rate);
  const double us_per_patch_cycle =
      switches == 0 ? 0.0
                    : static_cast<double>(switch_ns_total) / 1000.0 /
                          static_cast<double>(switches / 2);
  std::printf("%24s %14.1f ops/msec (%llu switches, %.1f us per patch "
              "cycle incl. grace period)\n",
              "live re-patching", churn_rate,
              static_cast<unsigned long long>(switches), us_per_patch_cycle);
  bench::ReportMetric("churn_ops", "ops_per_msec", quiet_rate,
                      {{"phase", "no_switching"}});
  bench::ReportMetric("churn_ops", "ops_per_msec", control_rate,
                      {{"phase", "control"}});
  bench::ReportMetric("churn_ops", "ops_per_msec", churn_rate,
                      {{"phase", "live_repatching"}});
  bench::ReportMetric("patch_cycle", "us", us_per_patch_cycle,
                      {{"switches", std::to_string(switches)}});
}

}  // namespace
}  // namespace concord

int main() {
  concord::bench::ReportInit("a9_lock_switching");
  concord::bench::ReportConfig("reader_threads", 3.0);
  concord::bench::ReportConfig("phase_ms",
                                static_cast<double>(concord::kPhaseMs));
  concord::bench::ReportConfig("repetitions", concord::kReps);
  concord::RunRwSwitchExperiment();
  concord::RunAttachChurnExperiment();
  concord::bench::ReportWrite();
  return 0;
}
