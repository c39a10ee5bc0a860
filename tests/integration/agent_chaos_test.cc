// Chaos coverage for the multi-process fleet agent (src/concord/agent/
// fleet.h), driven entirely in-process for determinism: a real worker-side
// RPC server and shm exporter feed a manually-ticked FleetAgent, and every
// degradation the tentpole promises — dead pid, stale segment, corrupt or
// truncated segment, injected agent.shm_map / agent.merge faults — must end
// in a clean eviction or a lost tick, never a crash, a wedged loop, or a
// half-applied fleet policy.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/base/fault.h"
#include "src/base/time.h"
#include "src/concord/agent/fleet.h"
#include "src/concord/agent/shm_segment.h"
#include "src/concord/agent/worker_export.h"
#include "src/concord/concord.h"
#include "src/concord/control_loop.h"
#include "src/concord/rpc/server.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

// The pathological-regime candidate pushed during canaries: the shipped
// log2-backoff skip_shuffle policy, inlined so the test has no file
// dependencies.
constexpr char kBackoffPolicy[] =
    "; hook: skip_shuffle\n"
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

class AgentChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FleetAgent::Global().ResetForTest();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string stem = ::testing::TempDir() + "agent_chaos_" +
                             std::to_string(getpid()) + "_" + info->name();
    shm_path_ = stem + ".shm";
    socket_path_ = "/tmp/agent_chaos_" + std::to_string(getpid()) + "_" +
                   info->name() + ".sock";
    std::remove(shm_path_.c_str());

    FleetAgentConfig config;
    config.canary.hysteresis_windows = 1;
    config.canary.canary_windows = 2;
    config.canary.min_window_acquisitions = 10;
    config.canary.cooldown_windows = 0;
    config.evict_after_stale_ticks = 3;
    ASSERT_TRUE(FleetAgent::Global().Configure(config).ok());
  }

  void TearDown() override {
    FleetAgent::Global().ResetForTest();
    if (server_ != nullptr) {
      server_->Stop();
    }
    exporter_.reset();
    Concord::Global().ResetForTest();
#if CONCORD_FAULT_INJECTION
    FaultRegistry::Global().DisarmAll();
#endif
    std::remove(shm_path_.c_str());
  }

  // A full in-process worker: one profiled lock, a control-plane RPC server
  // the agent can push policies to, and an shm exporter the agent samples.
  void StartWorker() {
    lock_id_ = Concord::Global().RegisterShflLock(lock_, "fleet_hot", "fleet");
    ASSERT_TRUE(Concord::Global().EnableProfiling(lock_id_).ok());

    RpcServerOptions server_options;
    server_options.socket_path = socket_path_;
    server_ = std::make_unique<RpcServer>(server_options);
    ASSERT_TRUE(server_->Start().ok());

    ShmExporterOptions exporter_options;
    exporter_options.shm_path = shm_path_;
    auto exporter = ShmExporter::Create(exporter_options);
    ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
    exporter_ = std::move(*exporter);

    ASSERT_TRUE(FleetAgent::Global()
                    .RegisterWorker(static_cast<std::uint64_t>(getpid()),
                                    shm_path_, socket_path_)
                    .ok());
  }

  // One synthetic pathological window (96% contention) written straight
  // into the worker's control shard, exported to the segment.
  void FeedPathologicalWindow(std::uint64_t wait_each_ns) {
    LockProfileStats& shard =
        Concord::Global().MutableStats(lock_id_)->ControlShard();
    shard.acquisitions.fetch_add(100);
    shard.contentions.fetch_add(96);
    for (int i = 0; i < 96; ++i) {
      shard.wait_ns.Record(wait_each_ns);
    }
    clock_.clock().AdvanceMs(100);
    ASSERT_TRUE(exporter_->ExportOnce().ok());
  }

  static bool HasEvent(const std::vector<AutotuneEvent>& events,
                       AutotuneEventKind kind, std::string* detail = nullptr) {
    for (const AutotuneEvent& event : events) {
      if (event.kind == kind) {
        if (detail != nullptr) {
          *detail = event.detail;
        }
        return true;
      }
    }
    return false;
  }

  ScopedManualControlLoop manual_loop_;
  ScopedFakeClock clock_;
  std::string shm_path_;
  std::string socket_path_;
  ShflLock lock_;
  std::uint64_t lock_id_ = 0;
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<ShmExporter> exporter_;
};

// A registered pid that no longer exists is evicted on the very next tick —
// before any segment access.
TEST_F(AgentChaosTest, DeadPidIsEvictedImmediately) {
  auto writer = ShmSegmentWriter::Create(shm_path_);
  ASSERT_TRUE(writer.ok());
  // PID far above any live process (pid_max on test systems is < 2^22).
  ASSERT_TRUE(
      FleetAgent::Global().RegisterWorker(999'999'999, shm_path_, "/nope").ok());
  ASSERT_EQ(FleetAgent::Global().WorkerCount(), 1u);

  std::string detail;
  const auto events = FleetAgent::Global().Tick();
  EXPECT_TRUE(HasEvent(events, AutotuneEventKind::kWorkerEvict, &detail));
  EXPECT_EQ(detail, "process exited");
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 0u);
}

// A worker whose exporter stops publishing is evicted after the configured
// number of progress-free ticks; the loop itself keeps running.
TEST_F(AgentChaosTest, StaleSegmentIsEvictedAfterThreshold) {
  auto writer = ShmSegmentWriter::Create(shm_path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Publish({}, 1).ok());
  ASSERT_TRUE(FleetAgent::Global()
                  .RegisterWorker(static_cast<std::uint64_t>(getpid()),
                                  shm_path_, "/nope")
                  .ok());

  EXPECT_TRUE(FleetAgent::Global().Tick().empty());  // baseline read
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 1u);
  // No publishes from here on: three progress-free ticks evict.
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());
  std::string detail;
  const auto events = FleetAgent::Global().Tick();
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kWorkerEvict, &detail));
  EXPECT_NE(detail.find("stale segment"), std::string::npos);
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 0u);

  // The agent keeps ticking cleanly with an empty fleet.
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());
}

// A version-mismatched header is permanent damage: evicted on first contact,
// no retries.
TEST_F(AgentChaosTest, CorruptVersionIsEvictedImmediately) {
  auto writer = ShmSegmentWriter::Create(shm_path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Publish({}, 1).ok());

  const int fd = open(shm_path_.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  const std::uint64_t bad_version = kShmSegmentVersion + 7;
  ASSERT_EQ(pwrite(fd, &bad_version, sizeof(bad_version),
                   offsetof(ShmSegmentHeader, version)),
            static_cast<ssize_t>(sizeof(bad_version)));
  close(fd);

  ASSERT_TRUE(FleetAgent::Global()
                  .RegisterWorker(static_cast<std::uint64_t>(getpid()),
                                  shm_path_, "/nope")
                  .ok());
  const auto events = FleetAgent::Global().Tick();
  EXPECT_TRUE(HasEvent(events, AutotuneEventKind::kWorkerEvict));
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 0u);
}

// A segment truncated under a live mapping (worker died, file reused) is
// detected by the pre-read size check and evicted immediately — not SIGBUS.
TEST_F(AgentChaosTest, TruncatedSegmentIsEvictedImmediately) {
  {
    auto writer = ShmSegmentWriter::Create(shm_path_, /*capacity=*/8);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Publish({}, 1).ok());
  }  // writer unmapped before the file shrinks
  ASSERT_TRUE(FleetAgent::Global()
                  .RegisterWorker(static_cast<std::uint64_t>(getpid()),
                                  shm_path_, "/nope")
                  .ok());
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());  // mapped + baseline read

  ASSERT_EQ(truncate(shm_path_.c_str(),
                     static_cast<off_t>(ShmSegmentBytes(8) / 4)),
            0);
  const auto events = FleetAgent::Global().Tick();
  EXPECT_TRUE(HasEvent(events, AutotuneEventKind::kWorkerEvict));
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 0u);
}

// The full in-process control loop: pathological windows classify, the
// candidate canaries across the (one-worker) fleet, improved waits promote
// it, and the worker really holds the attached policy.
TEST_F(AgentChaosTest, FleetCanaryPromotesOnImprovedWaits) {
  StartWorker();
  ASSERT_TRUE(FleetAgent::Global()
                  .registry()
                  .RegisterSource("test_backoff",
                                  ContentionRegime::kPathological,
                                  kBackoffPolicy)
                  .ok());

  // Baseline read, then one pathological window: classify, set baseline,
  // start the canary.
  FeedPathologicalWindow(/*wait_each_ns=*/4'000'000);
  FleetAgent::Global().Tick();  // baseline segment read
  FeedPathologicalWindow(/*wait_each_ns=*/4'000'000);
  auto events = FleetAgent::Global().Tick();
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kRegimeChange));
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kCanaryStart));
  EXPECT_EQ(Concord::Global().AttachedPolicyName(lock_id_), "test_backoff");

  // Two qualifying canary windows with 8x better waits: promote.
  for (int i = 0; i < 2; ++i) {
    FeedPathologicalWindow(/*wait_each_ns=*/500'000);
    events = FleetAgent::Global().Tick();
  }
  std::string detail;
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kPromote, &detail))
      << FleetAgent::Global().StatusJson();
  EXPECT_NE(detail.find("p99"), std::string::npos);
  EXPECT_EQ(Concord::Global().AttachedPolicyName(lock_id_), "test_backoff");
}

// The fleet pushes a candidate's source, and a built-in has none: when the
// fleet's registry chooses one, the push fails before any worker sees it.
// The engine reports `error` and backs the candidate off, and the worker
// stays on the incumbent and in the fleet.
TEST_F(AgentChaosTest, CandidateWithoutSourceIsAnErrorAndKeepsTheIncumbent) {
  StartWorker();
  // Built-ins only: shuffle_fairness_guard is the pathological choice.
  FleetAgent::Global().registry().SeedBuiltins();

  FeedPathologicalWindow(/*wait_each_ns=*/4'000'000);
  FleetAgent::Global().Tick();  // baseline segment read
  FeedPathologicalWindow(/*wait_each_ns=*/4'000'000);
  const std::uint64_t requests = server_->stats().requests;
  const auto events = FleetAgent::Global().Tick();
  std::string detail;
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kError, &detail))
      << FleetAgent::Global().StatusJson();
  EXPECT_NE(detail.find("no source"), std::string::npos) << detail;
  // No worker took the candidate, so none is sent the incumbent back.
  EXPECT_EQ(server_->stats().requests, requests);
  EXPECT_FALSE(HasEvent(events, AutotuneEventKind::kCanaryStart));
  EXPECT_FALSE(HasEvent(events, AutotuneEventKind::kWorkerEvict));
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 1u);
  EXPECT_TRUE(Concord::Global().AttachedPolicyName(lock_id_).empty());
  EXPECT_NE(FleetAgent::Global().StatusJson().find("\"incumbent\":\"plain\""),
            std::string::npos);

  // Backed off: the next window chooses plain, the incumbent, and changes
  // nothing.
  FeedPathologicalWindow(/*wait_each_ns=*/4'000'000);
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());
}

// Worse canary waits roll the fleet back: the candidate is detached from the
// worker and backed off from immediate retry.
TEST_F(AgentChaosTest, FleetCanaryRollsBackOnRegression) {
  StartWorker();
  ASSERT_TRUE(FleetAgent::Global()
                  .registry()
                  .RegisterSource("test_backoff",
                                  ContentionRegime::kPathological,
                                  kBackoffPolicy)
                  .ok());

  FeedPathologicalWindow(/*wait_each_ns=*/1'000'000);
  FleetAgent::Global().Tick();  // baseline segment read
  FeedPathologicalWindow(/*wait_each_ns=*/1'000'000);
  auto events = FleetAgent::Global().Tick();
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kCanaryStart));
  ASSERT_EQ(Concord::Global().AttachedPolicyName(lock_id_), "test_backoff");

  // 16x worse under the canary: roll back.
  for (int i = 0; i < 2; ++i) {
    FeedPathologicalWindow(/*wait_each_ns=*/16'000'000);
    events = FleetAgent::Global().Tick();
  }
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kRollback))
      << FleetAgent::Global().StatusJson();
  // The rollback pushed a detach: the worker is back to plain.
  EXPECT_TRUE(Concord::Global().AttachedPolicyName(lock_id_).empty());

  // The failed candidate is skipped while backed off — the next pathological
  // window must NOT restart the same canary.
  FeedPathologicalWindow(/*wait_each_ns=*/1'000'000);
  events = FleetAgent::Global().Tick();
  EXPECT_FALSE(HasEvent(events, AutotuneEventKind::kCanaryStart));
}

#if CONCORD_FAULT_INJECTION

// A push one of two workers rejects rolls back only the worker that took the
// candidate. The second worker lives in this process too, with its own
// control socket and segment, registered under the parent's pid (alive, so
// never evicted as dead). The first request any handler serves fails.
TEST_F(AgentChaosTest, RejectedPushRollsBackOnlyTheWorkersThatTookIt) {
  StartWorker();
  const std::string shm_path = shm_path_ + ".2";
  std::remove(shm_path.c_str());
  RpcServerOptions server_options;
  server_options.socket_path = socket_path_ + ".2";
  RpcServer second(server_options);
  ASSERT_TRUE(second.Start().ok());
  ShmExporterOptions exporter_options;
  exporter_options.shm_path = shm_path;
  auto exporter = ShmExporter::Create(exporter_options);
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
  ASSERT_TRUE(FleetAgent::Global()
                  .RegisterWorker(static_cast<std::uint64_t>(getppid()),
                                  shm_path, server_options.socket_path)
                  .ok());
  ASSERT_TRUE(FleetAgent::Global()
                  .registry()
                  .RegisterSource("test_backoff",
                                  ContentionRegime::kPathological,
                                  kBackoffPolicy)
                  .ok());

  FeedPathologicalWindow(/*wait_each_ns=*/4'000'000);
  ASSERT_TRUE((*exporter)->ExportOnce().ok());
  FleetAgent::Global().Tick();  // baseline segment reads
  FeedPathologicalWindow(/*wait_each_ns=*/4'000'000);
  ASSERT_TRUE((*exporter)->ExportOnce().ok());
  FaultRegistry::Global().Arm("rpc.handler",
                              {FaultRegistry::Mode::kNth, /*n=*/1});
  const auto events = FleetAgent::Global().Tick();
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kError))
      << FleetAgent::Global().StatusJson();
  EXPECT_FALSE(HasEvent(events, AutotuneEventKind::kCanaryStart));
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 2u);
  // The first worker rejected the attach and is sent nothing more; the
  // second took it and is sent the incumbent (plain: a detach).
  EXPECT_EQ(server_->stats().requests, 1u);
  EXPECT_EQ(second.stats().requests, 2u);
  EXPECT_TRUE(Concord::Global().AttachedPolicyName(lock_id_).empty());

  second.Stop();
  exporter->reset();
  std::remove(shm_path.c_str());
}

// A transient burst of agent.shm_map failures (fewer than the eviction
// threshold) must not evict: the worker recovers as soon as mapping works.
TEST_F(AgentChaosTest, ShmMapFaultBelowThresholdRecovers) {
  auto writer = ShmSegmentWriter::Create(shm_path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Publish({}, 1).ok());
  ASSERT_TRUE(FleetAgent::Global()
                  .RegisterWorker(static_cast<std::uint64_t>(getpid()),
                                  shm_path_, "/nope")
                  .ok());
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());  // baseline

  FaultRegistry::Global().Arm(
      "agent.shm_map", {FaultRegistry::Mode::kFirstN, /*n=*/2});
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 1u);  // 2 < threshold 3

  // Fault exhausted; fresh publish progress clears the stale count.
  ASSERT_TRUE((*writer)->Publish({}, 2).ok());
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 1u);
  ASSERT_TRUE((*writer)->Publish({}, 3).ok());
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 1u);
}

// A persistent agent.shm_map fault walks the worker to the eviction
// threshold; the agent survives and keeps ticking.
TEST_F(AgentChaosTest, PersistentShmMapFaultEvicts) {
  auto writer = ShmSegmentWriter::Create(shm_path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Publish({}, 1).ok());
  ASSERT_TRUE(FleetAgent::Global()
                  .RegisterWorker(static_cast<std::uint64_t>(getpid()),
                                  shm_path_, "/nope")
                  .ok());

  FaultRegistry::Global().Arm("agent.shm_map", {});
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());
  std::string detail;
  const auto events = FleetAgent::Global().Tick();
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kWorkerEvict, &detail));
  EXPECT_NE(detail.find("agent.shm_map"), std::string::npos);
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 0u);
  EXPECT_TRUE(FleetAgent::Global().Tick().empty());
}

// agent.merge wedges only the decision step: membership and sampling stay
// live, and the first un-wedged tick decides from fresh state.
TEST_F(AgentChaosTest, MergeFaultLosesDecisionsNeverConsistency) {
  StartWorker();
  ASSERT_TRUE(FleetAgent::Global()
                  .registry()
                  .RegisterSource("test_backoff",
                                  ContentionRegime::kPathological,
                                  kBackoffPolicy)
                  .ok());
  FeedPathologicalWindow(/*wait_each_ns=*/1'000'000);
  FleetAgent::Global().Tick();  // baseline

  FaultRegistry::Global().Arm("agent.merge", {});
  for (int i = 0; i < 4; ++i) {
    FeedPathologicalWindow(/*wait_each_ns=*/1'000'000);
    EXPECT_TRUE(FleetAgent::Global().Tick().empty());
    // Wedged decisions never touch the worker's attachment state.
    EXPECT_TRUE(Concord::Global().AttachedPolicyName(lock_id_).empty());
  }
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 1u);
  EXPECT_GE(FaultRegistry::Global().Fires("agent.merge"), 4u);

  FaultRegistry::Global().Disarm("agent.merge");
  FeedPathologicalWindow(/*wait_each_ns=*/1'000'000);
  const auto events = FleetAgent::Global().Tick();
  EXPECT_TRUE(HasEvent(events, AutotuneEventKind::kCanaryStart));
  EXPECT_EQ(Concord::Global().AttachedPolicyName(lock_id_), "test_backoff");
}

#endif  // CONCORD_FAULT_INJECTION

}  // namespace
}  // namespace concord
