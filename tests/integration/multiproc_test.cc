// Cross-process fleet-agent tests: three REAL forked worker processes
// (each with its own Concord facade, profiler, shm exporter, and control
// socket) register with a fleet agent over a unix-socket RPC server running
// in this process, and the fleet must converge on one attached policy.
//
// The agent loop is ticked manually, so decisions are driven by merged
// window counts rather than wall-clock; worker load is seeded Xoshiro256
// traffic plus attachment-steered synthetic waits (multiproc_util.h), which
// is what keeps the canary verdicts deterministic across machines. Sleeps
// only pace sampling — every assertion is reached by polling a condition,
// never by assuming a schedule.
//
// Covered here (the pieces that NEED process isolation — everything that
// can run single-process lives in agent_chaos_test.cc):
//   - three workers converge on the same promoted policy, verified by
//     querying each worker's own status verb over its socket
//   - kill -9 of one worker mid-canary: evicted, survivors promote
//   - a policy that regresses in production rolls the whole fleet back

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/concord/agent/fleet.h"
#include "src/concord/control_loop.h"
#include "src/concord/rpc/server.h"
#include "tests/integration/multiproc_util.h"

namespace concord {
namespace {

using multiproc::QueryAttachedPolicy;
using multiproc::SpawnWorker;
using multiproc::WorkerSpec;

// The pathological-regime candidate the fleet converges on — the shipped
// log2-backoff skip_shuffle policy, inlined (same source as the agent chaos
// suite) so the test has no file dependencies.
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

constexpr char kCandidateName[] = "test_backoff";

class MultiprocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FleetAgent::Global().ResetForTest();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    stem_ = ::testing::TempDir() + "mp_" + std::to_string(getpid()) + "_" +
            info->name();
    // Sockets live in /tmp directly: sun_path is ~108 bytes.
    socket_stem_ =
        "/tmp/mp_" + std::to_string(getpid()) + "_" + info->name();
    agent_socket_ = socket_stem_ + "_agent.sock";
    degrade_path_ = stem_ + ".degrade";
    std::remove(degrade_path_.c_str());

    FleetAgentConfig config;
    config.canary.hysteresis_windows = 1;
    config.canary.canary_windows = 2;
    config.canary.min_window_acquisitions = 10;
    config.canary.cooldown_windows = 0;
    // Workers publish every 10ms and we tick every ~100ms, so any healthy
    // worker shows progress each tick; 10 tolerates heavy CI scheduling
    // noise without masking a genuinely dead exporter.
    config.evict_after_stale_ticks = 10;
    // Long enough that "the canary does not restart after rollback" cannot
    // expire mid-assertion.
    config.canary.failed_candidate_backoff_windows = 1'000;
    ASSERT_TRUE(FleetAgent::Global().Configure(config).ok());
    ASSERT_TRUE(FleetAgent::Global()
                    .registry()
                    .RegisterSource(kCandidateName,
                                    ContentionRegime::kPathological,
                                    kBackoffPolicy)
                    .ok());

    RpcServerOptions server_options;
    server_options.socket_path = agent_socket_;
    agent_server_ = std::make_unique<RpcServer>(server_options);
    ASSERT_TRUE(agent_server_->Start().ok());
  }

  void TearDown() override {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      StopWorker(i, SIGTERM);
    }
    if (agent_server_ != nullptr) {
      agent_server_->Stop();
    }
    FleetAgent::Global().ResetForTest();
    std::remove(degrade_path_.c_str());
    for (const WorkerSpec& spec : specs_) {
      std::remove(spec.shm_path.c_str());
    }
  }

  // Forks one worker in re-exec mode; paths derive from the test name so
  // parallel ctest shards never collide.
  void Spawn(int index, bool with_degrade = false) {
    WorkerSpec spec;
    spec.shm_path = stem_ + "_w" + std::to_string(index) + ".shm";
    spec.control_socket =
        socket_stem_ + "_w" + std::to_string(index) + ".sock";
    spec.agent_socket = agent_socket_;
    if (with_degrade) {
      spec.degrade_path = degrade_path_;
    }
    spec.seed = 1'000 + static_cast<std::uint64_t>(index);
    std::remove(spec.shm_path.c_str());
    const pid_t pid = SpawnWorker(spec);
    ASSERT_GT(pid, 0);
    specs_.push_back(spec);
    workers_.push_back(pid);
    reaped_.push_back(false);
  }

  // Signal + reap. After this returns the pid is gone (kill(pid,0) is
  // ESRCH), which is what lets the agent's liveness probe see the death.
  void StopWorker(std::size_t index, int signo) {
    if (reaped_[index]) {
      return;
    }
    ::kill(workers_[index], signo);
    int status = 0;
    ::waitpid(workers_[index], &status, 0);
    reaped_[index] = true;
  }

  // Polls `condition` without ticking (e.g. registration, which arrives on
  // the agent server's RPC thread).
  template <typename Condition>
  bool WaitFor(Condition&& condition, std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (condition()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  // Drives the agent loop manually until an event of `kind` shows up.
  // Every event from every tick is appended to *all for later assertions.
  bool TickUntil(AutotuneEventKind kind, std::chrono::milliseconds timeout,
                 std::vector<AutotuneEvent>* all) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const auto events = FleetAgent::Global().Tick();
      all->insert(all->end(), events.begin(), events.end());
      for (const AutotuneEvent& event : events) {
        if (event.kind == kind) {
          return true;
        }
      }
    }
    return false;
  }

  static bool HasKind(const std::vector<AutotuneEvent>& events,
                      AutotuneEventKind kind) {
    for (const AutotuneEvent& event : events) {
      if (event.kind == kind) {
        return true;
      }
    }
    return false;
  }

  // The attached-policy name a worker reports for mp_hot over its own
  // control socket; "<error: ...>" keeps failures readable in EXPECT_EQ.
  std::string WorkerPolicy(std::size_t index) {
    auto policy =
        QueryAttachedPolicy(specs_[index].control_socket,
                            multiproc::kHotLockName);
    if (!policy.ok()) {
      return "<error: " + policy.status().ToString() + ">";
    }
    return *policy;
  }

  ScopedManualControlLoop manual_loop_;
  std::string stem_;
  std::string socket_stem_;
  std::string agent_socket_;
  std::string degrade_path_;
  std::unique_ptr<RpcServer> agent_server_;
  std::vector<WorkerSpec> specs_;
  std::vector<pid_t> workers_;
  std::vector<bool> reaped_;
};

// Three real processes register, their pathological windows merge into one
// fleet-wide signal, a canary runs across all of them, and every worker
// ends up holding the same promoted policy.
TEST_F(MultiprocTest, FleetConvergesAcrossThreeWorkers) {
  for (int i = 0; i < 3; ++i) {
    Spawn(i);
  }
  ASSERT_TRUE(WaitFor([] { return FleetAgent::Global().WorkerCount() == 3; },
                      std::chrono::seconds(10)))
      << FleetAgent::Global().StatusJson();

  std::vector<AutotuneEvent> all;
  ASSERT_TRUE(
      TickUntil(AutotuneEventKind::kPromote, std::chrono::seconds(30), &all))
      << FleetAgent::Global().StatusJson();
  EXPECT_TRUE(HasKind(all, AutotuneEventKind::kRegimeChange));
  EXPECT_TRUE(HasKind(all, AutotuneEventKind::kCanaryStart));
  EXPECT_FALSE(HasKind(all, AutotuneEventKind::kRollback));
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 3u);

  // Convergence means every worker — asked directly over its own socket —
  // reports the same attached policy.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(WorkerPolicy(i), kCandidateName) << "worker " << i;
  }
}

// kill -9 of one worker mid-canary must not wedge or roll back the fleet:
// the dead worker is evicted and the survivors' merged windows still carry
// the canary to promotion.
TEST_F(MultiprocTest, KilledWorkerMidCanaryIsEvictedWhileSurvivorsPromote) {
  for (int i = 0; i < 3; ++i) {
    Spawn(i);
  }
  ASSERT_TRUE(WaitFor([] { return FleetAgent::Global().WorkerCount() == 3; },
                      std::chrono::seconds(10)))
      << FleetAgent::Global().StatusJson();

  std::vector<AutotuneEvent> all;
  ASSERT_TRUE(
      TickUntil(AutotuneEventKind::kCanaryStart, std::chrono::seconds(20), &all))
      << FleetAgent::Global().StatusJson();

  // Mid-canary: SIGKILL worker 2 and reap it so the pid truly disappears.
  const pid_t killed = workers_[2];
  StopWorker(2, SIGKILL);

  ASSERT_TRUE(
      TickUntil(AutotuneEventKind::kPromote, std::chrono::seconds(30), &all))
      << FleetAgent::Global().StatusJson();
  EXPECT_FALSE(HasKind(all, AutotuneEventKind::kRollback));

  // The kill produced exactly one eviction — the killed pid, seen dead.
  bool evicted = false;
  for (const AutotuneEvent& event : all) {
    if (event.kind == AutotuneEventKind::kWorkerEvict) {
      EXPECT_EQ(event.worker_pid, static_cast<std::uint64_t>(killed));
      EXPECT_EQ(event.detail, "process exited");
      evicted = true;
    }
  }
  EXPECT_TRUE(evicted);
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 2u);

  // Both survivors hold the promoted policy.
  EXPECT_EQ(WorkerPolicy(0), kCandidateName);
  EXPECT_EQ(WorkerPolicy(1), kCandidateName);
}

// A candidate that certifies clean but regresses in production: the degrade
// file makes every worker's waits collapse the moment the policy attaches,
// so the canary verdict must roll the whole fleet back — every worker
// detached, nobody evicted, and the candidate backed off from retry.
TEST_F(MultiprocTest, FleetRollsBackOnInjectedRegression) {
  { std::ofstream touch(degrade_path_); }
  for (int i = 0; i < 3; ++i) {
    Spawn(i, /*with_degrade=*/true);
  }
  ASSERT_TRUE(WaitFor([] { return FleetAgent::Global().WorkerCount() == 3; },
                      std::chrono::seconds(10)))
      << FleetAgent::Global().StatusJson();

  std::vector<AutotuneEvent> all;
  ASSERT_TRUE(
      TickUntil(AutotuneEventKind::kRollback, std::chrono::seconds(30), &all))
      << FleetAgent::Global().StatusJson();
  EXPECT_TRUE(HasKind(all, AutotuneEventKind::kCanaryStart));
  EXPECT_FALSE(HasKind(all, AutotuneEventKind::kPromote));
  EXPECT_FALSE(HasKind(all, AutotuneEventKind::kWorkerEvict));
  EXPECT_EQ(FleetAgent::Global().WorkerCount(), 3u);

  // The rollback detached the canary from every worker.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(WorkerPolicy(i), "") << "worker " << i;
  }

  // The failed candidate is backed off: the still-pathological fleet signal
  // must not immediately restart the same canary.
  std::vector<AutotuneEvent> after;
  EXPECT_FALSE(TickUntil(AutotuneEventKind::kCanaryStart,
                         std::chrono::seconds(1), &after))
      << FleetAgent::Global().StatusJson();
}

}  // namespace
}  // namespace concord

// Worker mode first: when SpawnWorker re-execs this binary with the worker
// env set, it must never reach gtest.
int main(int argc, char** argv) {
  if (std::getenv(concord::multiproc::kEnvWorker) != nullptr) {
    return concord::multiproc::RunWorkerMain();
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
