// The control loop (src/concord/control_loop.h): what starts it, the order a
// tick steps the components in, that starting it never blocks, and that a
// stopped watchdog or exporter is never stepped again. Tests that need the
// real thread wait on conditions under a deadline and assert no time or
// throughput.

#include "src/concord/control_loop.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/concord/agent/fleet.h"
#include "src/concord/agent/shm_segment.h"
#include "src/concord/agent/worker_export.h"
#include "src/concord/autotune/controller.h"
#include "src/concord/concord.h"
#include "src/concord/containment.h"
#include "src/concord/policies.h"
#include "src/concord/rpc/server.h"
#include "src/concord/safety.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

// Sleeps 1ms between tries of `pred` until it holds or ~20s pass.
template <typename Pred>
bool Await(Pred pred) {
  const std::uint64_t deadline = MonotonicNowNs() + 20'000'000'000ull;
  while (!pred()) {
    if (MonotonicNowNs() > deadline) {
      return false;
    }
    timespec ts{0, 1'000'000};
    nanosleep(&ts, nullptr);
  }
  return true;
}

// Every read moves time on by 1us, so each timed hook dispatch overruns a
// sub-microsecond budget and no step depends on wall time.
class SteppingClock : public ClockInterface {
 public:
  std::uint64_t NowNs() override { return now_ns_.fetch_add(1'000) + 1'000; }

 private:
  std::atomic<std::uint64_t> now_ns_{1'000'000'000};
};

// The numa_grouping program, with a budget directive.
constexpr char kBudgetedNumaSource[] =
    "; hook: cmp_node\n"
    "; budget_ns: 1000000\n"
    "  ldxw r2, [r1+16]\n"
    "  ldxw r3, [r1+56]\n"
    "  jeq  r2, r3, same\n"
    "  mov  r0, 0\n"
    "  exit\n"
    "same:\n"
    "  mov  r0, 1\n"
    "  exit\n";

// The shipped log2-backoff skip_shuffle policy, with a budget directive.
constexpr char kBudgetedBackoffSource[] =
    "; hook: skip_shuffle\n"
    "; budget_ns: 1000000\n"
    "  ldxdw r2, [r1+0]\n"
    "  mov   r3, 0\n"
    "scan:\n"
    "  jle   r2, 1, done\n"
    "  rsh   r2, 1\n"
    "  add   r3, 1\n"
    "  jlt   r3, 64, scan\n"
    "done:\n"
    "  jlt   r3, 10, skip\n"
    "  mov   r0, 0\n"
    "  exit\n"
    "skip:\n"
    "  mov   r0, 1\n"
    "  exit\n";

class ControlLoopTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FleetAgent::Global().ResetForTest();
    Concord::Global().ResetForTest();
  }

  // One synthetic window written straight into the control shard.
  void Feed(std::uint64_t acquisitions, std::uint64_t contentions,
            std::uint64_t wait_each_ns, bool two_sockets) {
    LockProfileStats& shard =
        Concord::Global().MutableStats(lock_id_)->ControlShard();
    shard.acquisitions.fetch_add(acquisitions);
    shard.contentions.fetch_add(contentions);
    shard.socket_acquisitions[0].fetch_add(two_sockets ? acquisitions / 2
                                                       : acquisitions);
    if (two_sockets) {
      shard.socket_acquisitions[1].fetch_add(acquisitions - acquisitions / 2);
      shard.cross_socket_handoffs.fetch_add(contentions * 4 / 5);
    }
    for (std::uint64_t i = 0; i < contentions; ++i) {
      shard.wait_ns.Record(wait_each_ns);
    }
  }
  void FeedNuma(std::uint64_t wait_each_ns) {
    Feed(100, 50, wait_each_ns, /*two_sockets=*/true);
  }

  static bool HasContainment(std::uint64_t lock_id, ContainmentAction action) {
    for (const ContainmentEvent& event : ContainmentRegistry::Global().events()) {
      if (event.lock_id == lock_id && event.action == action) {
        return true;
      }
    }
    return false;
  }

  static bool HasEvent(const std::vector<AutotuneEvent>& events,
                       AutotuneEventKind kind,
                       const std::string& candidate = "") {
    return std::any_of(events.begin(), events.end(),
                       [&](const AutotuneEvent& event) {
                         return event.kind == kind &&
                                (candidate.empty() ||
                                 event.candidate == candidate);
                       });
  }

  static bool HasVerdict(const std::vector<AutotuneEvent>& events) {
    return HasEvent(events, AutotuneEventKind::kPromote) ||
           HasEvent(events, AutotuneEventKind::kRollback) ||
           HasEvent(events, AutotuneEventKind::kCanaryAbort);
  }

  ShflLock lock_;
  std::uint64_t lock_id_ = 0;
};

TEST_F(ControlLoopTest, ManualScopeKeepsTheThreadOff) {
  ControlLoop& loop = ControlLoop::Global();
  loop.Start();
  EXPECT_TRUE(loop.thread_running());
  {
    ScopedManualControlLoop manual;
    EXPECT_FALSE(loop.thread_running());
    loop.Start();
    EXPECT_FALSE(loop.thread_running());
  }
  EXPECT_FALSE(loop.thread_running());
  loop.Start();
  EXPECT_TRUE(loop.thread_running());
}

// Burns well past its budget on every release.
std::uint64_t SlowReleaseTap(void*, void*) {
  BurnNs(200'000);
  return 0;
}

// Nothing in the test polls containment: the budgeted attach starts the
// loop, whose containment pass quarantines the tap and, after the backoff,
// re-attaches it on probation.
TEST_F(ControlLoopTest, BudgetOverrunIsQuarantinedAndReattachedWithoutPoll) {
  { ScopedManualControlLoop stop_any_running_loop; }
  ASSERT_FALSE(ControlLoop::Global().thread_running());

  ContainmentConfig config;
  config.quarantine_threshold = 1;
  config.initial_backoff_ns = 20'000'000;  // 20ms
  ContainmentRegistry::Global().SetConfig(config);

  Concord& concord = Concord::Global();
  lock_id_ = concord.RegisterShflLock(lock_, "overrun", "loop");
  PolicySpec spec;
  spec.name = "slow-release";
  spec.AddNative(HookKind::kLockRelease, "slow", SlowReleaseTap);
  spec.hook_budget_ns = 10'000;
  spec.hook_budget_trip = 1;
  ASSERT_TRUE(concord.Attach(lock_id_, std::move(spec)).ok());

  lock_.Lock();
  lock_.Unlock();  // one overrun trips the budget

  EXPECT_TRUE(Await(
      [&] { return HasContainment(lock_id_, ContainmentAction::kQuarantined); }))
      << ContainmentRegistry::Global().Report();
  EXPECT_TRUE(Await(
      [&] { return HasContainment(lock_id_, ContainmentAction::kReattached); }))
      << ContainmentRegistry::Global().Report();
  const PolicyHealth health = ContainmentRegistry::Global().HealthOf(lock_id_);
  EXPECT_TRUE(health == PolicyHealth::kProbation ||
              health == PolicyHealth::kActive);
  EXPECT_EQ(concord.AttachedPolicyName(lock_id_), "slow-release");
}

// In one Tick(), containment harvests the budget trip of the policy autotune
// promoted and quarantines it, and then the controller, seeing the
// quarantine, drops the policy. Ticking autotune first would miss it.
TEST_F(ControlLoopTest, ContainmentQuarantinesBeforeAutotuneDecides) {
  ScopedManualControlLoop manual;
  SteppingClock clock;
  struct ClockRestore {
    ClockInterface* previous;
    ~ClockRestore() { SetClockOverrideForTest(previous); }
  } restore{SetClockOverrideForTest(&clock)};

  Concord& concord = Concord::Global();
  lock_id_ = concord.RegisterShflLock(lock_, "tuned", "loop");
  ContainmentConfig containment;
  containment.quarantine_threshold = 1;
  ContainmentRegistry::Global().SetConfig(containment);

  AutotuneController& controller = AutotuneController::Global();
  PolicyCandidate budgeted;
  budgeted.name = "budgeted_taps";
  budgeted.regime = ContentionRegime::kNumaSkewed;
  budgeted.make = []() -> StatusOr<PolicySpec> {
    auto policy = MakeBpfProfilerPolicy();
    CONCORD_RETURN_IF_ERROR(policy.status());
    policy->spec.name = "budgeted_taps";
    policy->spec.hook_budget_ns = 500;  // certifies; below one clock step
    policy->spec.hook_budget_trip = 1;
    return std::move(policy->spec);
  };
  AutotuneConfig config;
  config.window_ns = 1;  // due on every tick
  config.canary.hysteresis_windows = 1;
  config.canary.canary_windows = 2;
  config.canary.cooldown_windows = 0;
  config.canary.min_window_acquisitions = 10;
  ASSERT_TRUE(controller.Configure(config).ok());
  controller.registry().Clear();  // the budgeted candidate only
  ASSERT_TRUE(controller.registry().Register(budgeted).ok());
  ASSERT_TRUE(concord.EnableAutotune("tuned", config).ok());

  ControlLoop& loop = ControlLoop::Global();
  loop.Tick();  // first snapshot
  FeedNuma(64'000);
  loop.Tick();
  ASSERT_EQ(concord.AttachedPolicyName(lock_id_), "budgeted_taps")
      << controller.StatusJson();
  FeedNuma(8'000);
  loop.Tick();
  FeedNuma(8'000);
  loop.Tick();
  ASSERT_TRUE(HasEvent(controller.RecentEvents(), AutotuneEventKind::kPromote,
                       "budgeted_taps"))
      << controller.StatusJson();

  // One acquisition runs the taps against a clock that moves 1us a read.
  lock_.Lock();
  lock_.Unlock();
  const std::size_t seen = controller.RecentEvents(256).size();
  loop.Tick();
  const std::vector<AutotuneEvent> all = controller.RecentEvents(256);
  const std::vector<AutotuneEvent> fresh(all.begin() + seen, all.end());
  EXPECT_TRUE(HasContainment(lock_id_, ContainmentAction::kQuarantined))
      << ContainmentRegistry::Global().Report();
  EXPECT_TRUE(HasEvent(fresh, AutotuneEventKind::kQuarantineExit,
                       "budgeted_taps"))
      << controller.StatusJson();
  EXPECT_TRUE(concord.AttachedPolicyName(lock_id_).empty());
}

// An autotune candidate with a `; budget_ns:` directive attaches from inside
// the loop's own step, and that attach starts the loop: it must return, or
// the loop would never get to score the canary.
TEST_F(ControlLoopTest, BudgetedCanaryAttachInsideAStepDoesNotBlock) {
  Concord& concord = Concord::Global();
  lock_id_ = concord.RegisterShflLock(lock_, "inside", "loop");
  AutotuneController& controller = AutotuneController::Global();
  AutotuneConfig config;
  config.window_ns = 2'000'000;  // 2ms
  config.canary.hysteresis_windows = 1;
  config.canary.canary_windows = 2;
  config.canary.cooldown_windows = 0;
  config.canary.min_window_acquisitions = 10;
  ASSERT_TRUE(controller.Configure(config).ok());
  controller.registry().Clear();  // the budgeted candidate only
  ASSERT_TRUE(controller.registry()
                  .RegisterSource("budget_numa", ContentionRegime::kNumaSkewed,
                                  kBudgetedNumaSource)
                  .ok());
  ASSERT_TRUE(concord.EnableAutotune("inside", config).ok());

  EXPECT_TRUE(Await([&] {
    FeedNuma(8'000);
    return HasEvent(controller.RecentEvents(256),
                    AutotuneEventKind::kCanaryStart, "budget_numa");
  })) << controller.StatusJson();
  EXPECT_TRUE(Await([&] {
    FeedNuma(8'000);
    return HasVerdict(controller.RecentEvents(256));
  })) << controller.StatusJson();
  ASSERT_TRUE(concord.DisableAutotune().ok());
}

// The fleet agent's step pushes a budgeted candidate over RPC to a worker
// server in this process; the handler's attach starts the loop while the
// step waits for the reply. A blocking start would time the push out and
// evict the worker.
TEST_F(ControlLoopTest, BudgetedFleetPushIntoThisProcessDoesNotBlock) {
  const std::string stem = ::testing::TempDir() + "control_loop_" +
                           std::to_string(getpid());
  const std::string shm_path = stem + ".shm";
  const std::string socket_path =
      "/tmp/control_loop_" + std::to_string(getpid()) + ".sock";
  std::remove(shm_path.c_str());

  Concord& concord = Concord::Global();
  lock_id_ = concord.RegisterShflLock(lock_, "fleet_hot", "fleet");
  ASSERT_TRUE(concord.EnableProfiling(lock_id_).ok());
  RpcServerOptions server_options;
  server_options.socket_path = socket_path;
  RpcServer server(server_options);
  ASSERT_TRUE(server.Start().ok());
  ShmExporterOptions exporter_options;
  exporter_options.shm_path = shm_path;
  auto exporter = ShmExporter::Create(exporter_options);
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();

  FleetAgent& agent = FleetAgent::Global();
  FleetAgentConfig config;
  config.window_ns = 20'000'000;  // 20ms
  config.canary.hysteresis_windows = 1;
  config.canary.canary_windows = 2;
  config.canary.cooldown_windows = 0;
  config.canary.min_window_acquisitions = 10;
  config.evict_after_stale_ticks = 1'000;
  ASSERT_TRUE(agent.Configure(config).ok());
  ASSERT_TRUE(agent
                  .registry()
                  .RegisterSource("budgeted_backoff",
                                  ContentionRegime::kPathological,
                                  kBudgetedBackoffSource)
                  .ok());
  ASSERT_TRUE(agent
                  .RegisterWorker(static_cast<std::uint64_t>(getpid()),
                                  shm_path, socket_path)
                  .ok());
  (*exporter)->Start();
  agent.Start();

  EXPECT_TRUE(Await([&] {
    Feed(100, 96, 4'000'000, /*two_sockets=*/false);
    return HasEvent(agent.RecentEvents(256), AutotuneEventKind::kCanaryStart,
                    "budgeted_backoff");
  })) << agent.StatusJson();
  EXPECT_TRUE(Await([&] {
    Feed(100, 96, 4'000'000, /*two_sockets=*/false);
    return HasVerdict(agent.RecentEvents(256));
  })) << agent.StatusJson();
  EXPECT_FALSE(HasEvent(agent.RecentEvents(256),
                        AutotuneEventKind::kWorkerEvict))
      << agent.StatusJson();
  EXPECT_EQ(agent.WorkerCount(), 1u);

  agent.Stop();
  exporter->reset();
  server.Stop();
  std::remove(shm_path.c_str());
}

// A stopped watchdog is out of every later tick; the witness, joined after
// it and so stepped after it, shows a later tick happened. Destroying
// watchdogs while the loop runs is the ASan check.
TEST_F(ControlLoopTest, StoppedWatchdogIsNeverSteppedAgain) {
  Concord& concord = Concord::Global();
  lock_id_ = concord.RegisterShflLock(lock_, "watched", "loop");
  WatchdogConfig config;
  config.max_wait_ns = 1'000'000;
  config.auto_detach = false;
  FairnessWatchdog witness(config);
  auto stopped = std::make_unique<FairnessWatchdog>(config);
  ASSERT_TRUE(witness.Watch(lock_id_).ok());
  ASSERT_TRUE(stopped->Watch(lock_id_).ok());
  stopped->Start();
  witness.Start();

  Feed(1, 1, 10'000'000, /*two_sockets=*/false);
  ASSERT_TRUE(Await([&] {
    return witness.violations().size() == 1 &&
           stopped->violations().size() == 1;
  }));
  stopped->Stop();
  Feed(1, 1, 40'000'000, /*two_sockets=*/false);
  ASSERT_TRUE(Await([&] { return witness.violations().size() == 2; }));
  EXPECT_EQ(stopped->violations().size(), 1u);
  stopped.reset();

  for (int i = 0; i < 20; ++i) {
    auto churn = std::make_unique<FairnessWatchdog>(config);
    ASSERT_TRUE(churn->Watch(lock_id_).ok());
    churn->Start();
    Feed(1, 1, 80'000'000ull << (i % 4), /*two_sockets=*/false);
    timespec ts{0, 500'000};
    nanosleep(&ts, nullptr);
  }
}

// Same for an exporter: its segment stops advancing once it is stopped,
// while the segment of a witness exporter, stepped before it, keeps going.
TEST_F(ControlLoopTest, StoppedExporterIsNeverSteppedAgain) {
  Concord& concord = Concord::Global();
  lock_id_ = concord.RegisterShflLock(lock_, "exported", "loop");
  ASSERT_TRUE(concord.EnableProfiling(lock_id_).ok());
  const std::string stem = ::testing::TempDir() + "control_loop_export_" +
                           std::to_string(getpid());
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<ShmExporter>> exporters;
  std::vector<std::unique_ptr<ShmSegmentReader>> readers;
  for (int i = 0; i < 2; ++i) {
    paths.push_back(stem + "_" + std::to_string(i) + ".shm");
    std::remove(paths.back().c_str());
    ShmExporterOptions options;
    options.shm_path = paths.back();
    auto exporter = ShmExporter::Create(options);
    ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
    exporters.push_back(std::move(*exporter));
    auto reader = ShmSegmentReader::Map(paths.back());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    readers.push_back(std::move(*reader));
    exporters.back()->Start();
  }
  const auto published = [&](int i) -> std::uint64_t {
    auto sample = readers[i]->Read();
    return sample.ok() ? sample->publish_count : 0;
  };

  ASSERT_TRUE(Await([&] { return published(0) >= 1 && published(1) >= 1; }));
  exporters[1]->Stop();
  const std::uint64_t stopped_at = published(1);
  const std::uint64_t witness_at = published(0);
  ASSERT_TRUE(Await([&] { return published(0) >= witness_at + 2; }));
  EXPECT_EQ(published(1), stopped_at);
  exporters.clear();  // destroyed while the loop runs
  for (const std::string& path : paths) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace concord
