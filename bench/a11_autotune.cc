// A11: the adaptive policy control plane end to end (docs/AUTOTUNE.md).
//
// The workload models the paper's NUMA motivation directly: the critical
// section touches data that must "migrate" when the lock hops sockets, so a
// cross-socket handoff pays a large burn and a same-socket handoff a small
// one. With worker threads pinned alternately to two virtual sockets the
// lock ping-pongs and wait times are dominated by migration cost — exactly
// the regime the NUMA grouping policy fixes by granting same-socket waiters
// consecutively.
//
// Three experiments:
//  1. Convergence: start skewed, enable autotune, and wait for the
//     controller to classify the lock NUMA-skewed, canary numa_grouping and
//     promote it on a measured p50/p99 win. Reports time-to-promote and
//     throughput before/after; the controller is paused for the "after"
//     measurement, since under contention it may canary plain against the
//     promoted policy at any time.
//  2. Reversion: resume the controller, move every thread onto one socket
//     (skew gone) and wait for it to fall back to plain.
//  3. Overhead: steady-state single-thread throughput with the controller
//     running vs stopped, in alternating windows — the control plane must be
//     free when it has nothing to do (target: <=2%).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/base/json.h"
#include "src/base/time.h"
#include "src/concord/autotune/controller.h"
#include "src/concord/concord.h"
#include "src/sync/shfllock.h"
#include "src/topology/thread_context.h"
#include "src/topology/topology.h"

namespace concord {
namespace {

constexpr int kThreads = 8;
constexpr std::uint64_t kLocalBurnNs = 1'000;
constexpr std::uint64_t kMigrateBurnNs = 20'000;
constexpr std::uint64_t kOutsideBurnNs = 4'000;
constexpr std::uint64_t kPhaseTimeoutNs = 20'000'000'000ull;  // 20s

struct Workload {
  ShflLock* lock = nullptr;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  // Socket of the previous lock holder; a handoff that crosses sockets pays
  // the migration burn inside the critical section.
  std::atomic<std::uint32_t> last_socket{0};
  std::atomic<std::uint64_t> migrations{0};
  std::vector<std::thread> workers;

  // `socket_of(t)` pins worker t's virtual socket.
  void Start(std::uint32_t (*socket_of)(int), int threads = kThreads) {
    const std::uint32_t cores =
        MachineTopology::Global().config().cores_per_socket;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([this, t, cores, socket_of] {
        const std::uint32_t socket = socket_of(t);
        ThreadRegistry::Global().RegisterCurrent(
            socket * cores + static_cast<std::uint32_t>(t) % cores);
        while (!stop.load(std::memory_order_relaxed)) {
          lock->Lock();
          const std::uint32_t prev =
              last_socket.exchange(socket, std::memory_order_relaxed);
          if (prev != socket) {
            BurnNs(kMigrateBurnNs);
            migrations.fetch_add(1, std::memory_order_relaxed);
          } else {
            BurnNs(kLocalBurnNs);
          }
          lock->Unlock();
          ops.fetch_add(1, std::memory_order_relaxed);
          BurnNs(kOutsideBurnNs);
        }
      });
    }
  }

  void Stop() {
    stop.store(true);
    for (auto& worker : workers) {
      worker.join();
    }
    workers.clear();
    stop.store(false);
  }
};

// ops/msec over a sampling interval.
double MeasureRate(const Workload& load, int ms) {
  const std::uint64_t before = load.ops.load();
  bench::SleepMs(ms);
  return static_cast<double>(load.ops.load() - before) /
         static_cast<double>(ms);
}

// Waits until the controller's event log shows `kind` for `candidate` (empty
// = any), stamped at or after `start_ns` (the phase's start; events of an
// earlier phase never match). Returns the event, or nothing on timeout.
std::optional<AutotuneEvent> AwaitEvent(AutotuneEventKind kind,
                                        const std::string& candidate,
                                        std::uint64_t start_ns) {
  while (MonotonicNowNs() - start_ns < kPhaseTimeoutNs) {
    for (const AutotuneEvent& event :
         AutotuneController::Global().RecentEvents(256)) {
      if (event.kind == kind &&
          (candidate.empty() || event.candidate == candidate) &&
          event.ts_ns >= start_ns) {
        return event;
      }
    }
    bench::SleepMs(10);
  }
  return std::nullopt;
}

// The controller's incumbent for the one enrolled lock.
std::string Incumbent() {
  auto status = ParseJson(AutotuneController::Global().StatusJson());
  const JsonValue* locks = status.ok() ? status->Find("locks") : nullptr;
  if (locks == nullptr || locks->array.empty()) {
    return "?";
  }
  const JsonValue* incumbent = locks->array[0].Find("incumbent");
  return incumbent != nullptr ? incumbent->string_value : "?";
}

int Run() {
  Concord& concord = Concord::Global();
  static ShflLock lock;
  lock.SetBlocking(true);
  const std::uint64_t id = concord.RegisterShflLock(lock, "a11_hot", "bench");

  AutotuneConfig config;
  config.window_ns = 50'000'000;  // 50ms
  config.canary.hysteresis_windows = 2;
  config.canary.canary_windows = 3;
  config.canary.cooldown_windows = 2;
  config.canary.min_window_acquisitions = 32;
  config.canary.promote_margin = 0.05;
  // Retry a rolled-back canary quickly: one noisy baseline window can sink a
  // genuinely better candidate, and this bench is about convergence time.
  config.canary.failed_candidate_backoff_windows = 6;
  // This host-threaded workload saturates the lock by design; keep the
  // pathological regime for genuine starvation so the NUMA signal can win.
  config.canary.classifier.pathological_min_rate = 1.01;
  config.canary.classifier.pathological_wait_p99_ns = 500'000'000;

  Workload load;
  load.lock = &lock;

  // --- 1. convergence under NUMA skew ---------------------------------------
  load.Start(+[](int t) { return static_cast<std::uint32_t>(t % 2); });
  bench::SleepMs(100);  // let contention establish before sampling starts
  const double skewed_before = MeasureRate(load, 400);

  const std::uint64_t phase1_ns = MonotonicNowNs();
  CONCORD_CHECK(concord.EnableAutotune("a11_hot", config).ok());
  const auto promoted =
      AwaitEvent(AutotuneEventKind::kPromote, "numa_grouping", phase1_ns);
  const bool converged = promoted.has_value();
  const std::uint64_t promote_ns = converged ? promoted->ts_ns - phase1_ns : 0;
  CONCORD_CHECK(concord.DisableAutotune().ok());
  double skewed_after = 0.0;
  if (converged) {
    bench::SleepMs(100);
    skewed_after = MeasureRate(load, 400);
  }
  load.Stop();

  std::printf("\n=== A11.1: convergence to numa_grouping under socket skew "
              "[%d threads, 2 sockets] ===\n", kThreads);
  std::printf("%24s %14s\n", "", "ops/msec");
  std::printf("%24s %14.1f\n", "plain (skewed)", skewed_before);
  if (converged) {
    std::printf("%24s %14.1f  (promoted after %.0f ms)\n",
                "numa_grouping", skewed_after,
                static_cast<double>(promote_ns) / 1e6);
  } else {
    std::printf("%24s %14s\n", "numa_grouping", "NOT PROMOTED");
    std::printf("controller status: %s\n",
                AutotuneController::Global().StatusJson().c_str());
  }
  bench::ReportMetric("converged", "bool", converged ? 1.0 : 0.0,
                      {{"phase", "skewed"}});
  bench::ReportMetric("time_to_promote", "ms",
                      static_cast<double>(promote_ns) / 1e6,
                      {{"candidate", "numa_grouping"}});
  bench::ReportMetric("throughput", "ops_per_msec", skewed_before,
                      {{"phase", "skewed"}, {"policy", "plain"}});
  bench::ReportMetric("throughput", "ops_per_msec", skewed_after,
                      {{"phase", "skewed"}, {"policy", "numa_grouping"}});

  // --- 2. reversion when the skew disappears ---------------------------------
  const std::string incumbent = Incumbent();
  const std::uint64_t phase2_ns = MonotonicNowNs();
  load.Start(+[](int) { return std::uint32_t{0}; });
  CONCORD_CHECK(concord.EnableAutotune("a11_hot", config).ok());
  const auto reversion =
      AwaitEvent(AutotuneEventKind::kPromote, kPlainCandidateName, phase2_ns);
  const bool reverted = reversion.has_value();
  const std::uint64_t revert_ns = reverted ? reversion->ts_ns - phase2_ns : 0;
  load.Stop();

  std::printf("\n=== A11.2: reversion to plain when skew is removed ===\n");
  std::printf("%24s %s\n", "incumbent at start", incumbent.c_str());
  if (reverted) {
    std::printf("%24s after %.0f ms (%s)\n", "reverted to plain",
                static_cast<double>(revert_ns) / 1e6,
                reversion->detail.c_str());
  } else {
    std::printf("%24s\n", "NOT REVERTED");
  }
  bench::ReportMetric("reverted", "bool", reverted ? 1.0 : 0.0,
                      {{"phase", "unskewed"}});
  bench::ReportMetric("time_to_revert", "ms",
                      static_cast<double>(revert_ns) / 1e6,
                      {{"candidate", "plain"}});

  // --- 3. steady-state overhead ----------------------------------------------
  // Controller running but with nothing to change: a single uncontended
  // thread, the cheapest regime and the least noisy measurement. Windows with
  // the controller running (still on from phase 2, then re-enabled) and
  // stopped alternate, and the engine keeps its state across each toggle, so
  // drift in the host's speed lands on both sides of every pair. The overhead
  // is reported per pair and as the median with its min and max.
  constexpr int kOverheadPairs = 5;
  constexpr int kWindowMs = 240;
  constexpr int kSettleMs = 20;
  load.Start(+[](int) { return std::uint32_t{0}; }, /*threads=*/1);
  bench::SleepMs(200);
  std::printf("\n=== A11.3: steady-state controller overhead "
              "[%d alternating pairs of %d ms windows] ===\n",
              kOverheadPairs, kWindowMs);
  std::printf("%6s %16s %16s %10s\n", "pair", "running ops/ms",
              "stopped ops/ms", "overhead");
  std::vector<double> overheads;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    if (pair > 0) {
      CONCORD_CHECK(concord.EnableAutotune("a11_hot", config).ok());
      bench::SleepMs(kSettleMs);
    }
    const double with_controller = MeasureRate(load, kWindowMs);
    CONCORD_CHECK(concord.DisableAutotune().ok());
    bench::SleepMs(kSettleMs);
    const double without_controller = MeasureRate(load, kWindowMs);
    const double overhead_pct =
        without_controller <= 0.0 ? 0.0
                                  : (without_controller - with_controller) /
                                        without_controller * 100.0;
    overheads.push_back(overhead_pct);
    std::printf("%6d %16.1f %16.1f %8.2f %%\n", pair + 1, with_controller,
                without_controller, overhead_pct);
    const std::string pair_label = std::to_string(pair + 1);
    bench::ReportMetric(
        "throughput", "ops_per_msec", with_controller,
        {{"phase", "steady"}, {"controller", "on"}, {"pair", pair_label}});
    bench::ReportMetric(
        "throughput", "ops_per_msec", without_controller,
        {{"phase", "steady"}, {"controller", "off"}, {"pair", pair_label}});
    bench::ReportMetric("steady_state_overhead", "percent", overhead_pct,
                        {{"pair", pair_label}});
  }
  load.Stop();

  std::sort(overheads.begin(), overheads.end());
  const double median = overheads[overheads.size() / 2];
  std::printf("%6s %8.2f %% [min %.2f, max %.2f] (target <= 2%%)\n", "median",
              median, overheads.front(), overheads.back());
  bench::ReportMetric("steady_state_overhead", "percent", median,
                      {{"stat", "median"}});
  bench::ReportMetric("steady_state_overhead", "percent", overheads.front(),
                      {{"stat", "min"}});
  bench::ReportMetric("steady_state_overhead", "percent", overheads.back(),
                      {{"stat", "max"}});

  CONCORD_CHECK(concord.Unregister(id).ok());
  return (converged && reverted) ? 0 : 1;
}

}  // namespace
}  // namespace concord

int main() {
  concord::bench::ReportInit("a11_autotune");
  concord::bench::ReportConfig("threads", concord::kThreads);
  concord::bench::ReportConfig("migrate_burn_ns",
                               static_cast<double>(concord::kMigrateBurnNs));
  concord::bench::ReportConfig("local_burn_ns",
                               static_cast<double>(concord::kLocalBurnNs));
  const int rc = concord::Run();
  concord::bench::ReportWrite();
  return rc;
}
