// Deterministic tests for the adaptive policy control plane
// (src/concord/autotune/): classifier, hysteresis, candidate registry, and
// the controller's canary state machine driven by FakeClock ticks and
// synthetic profiler feeds.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/concord/autotune/candidates.h"
#include "src/concord/autotune/controller.h"
#include "src/concord/autotune/regime.h"
#include "src/concord/concord.h"
#include "src/concord/containment.h"
#include "src/concord/control_loop.h"
#include "src/concord/policies.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

// --- classifier -------------------------------------------------------------

RegimeSignals Signals() {
  RegimeSignals signals;
  signals.window_acquisitions = 1000;
  return signals;
}

TEST(RegimeClassifier, Uncontended) {
  DefaultRegimeClassifier classifier;
  RegimeSignals signals = Signals();
  signals.contention_rate = 0.01;
  EXPECT_EQ(classifier.Classify(signals), ContentionRegime::kUncontended);
}

TEST(RegimeClassifier, Moderate) {
  DefaultRegimeClassifier classifier;
  RegimeSignals signals = Signals();
  signals.contention_rate = 0.5;
  EXPECT_EQ(classifier.Classify(signals), ContentionRegime::kModerate);
}

TEST(RegimeClassifier, PathologicalByRate) {
  DefaultRegimeClassifier classifier;
  RegimeSignals signals = Signals();
  signals.contention_rate = 0.99;
  EXPECT_EQ(classifier.Classify(signals), ContentionRegime::kPathological);
}

TEST(RegimeClassifier, PathologicalByTail) {
  DefaultRegimeClassifier classifier;
  RegimeSignals signals = Signals();
  signals.contention_rate = 0.3;
  signals.wait_p99_ns = 60'000'000;  // past the 50ms starvation bar
  EXPECT_EQ(classifier.Classify(signals), ContentionRegime::kPathological);
}

TEST(RegimeClassifier, NumaSkewed) {
  DefaultRegimeClassifier classifier;
  RegimeSignals signals = Signals();
  signals.contention_rate = 0.5;
  signals.active_sockets = 2;
  signals.cross_socket_rate = 0.6;
  EXPECT_EQ(classifier.Classify(signals), ContentionRegime::kNumaSkewed);
}

TEST(RegimeClassifier, RwLockNeverNumaSkewed) {
  DefaultRegimeClassifier classifier;
  RegimeSignals signals = Signals();
  signals.contention_rate = 0.5;
  signals.active_sockets = 2;
  signals.cross_socket_rate = 0.6;
  signals.is_rw = true;
  EXPECT_EQ(classifier.Classify(signals), ContentionRegime::kModerate);
}

TEST(RegimeClassifier, ReaderHeavy) {
  DefaultRegimeClassifier classifier;
  RegimeSignals signals = Signals();
  signals.contention_rate = 0.5;
  signals.is_rw = true;
  signals.reader_fraction = 0.9;
  EXPECT_EQ(classifier.Classify(signals), ContentionRegime::kReaderHeavy);
}

TEST(RegimeClassifier, PathologicalOutranksNuma) {
  DefaultRegimeClassifier classifier;
  RegimeSignals signals = Signals();
  signals.contention_rate = 0.99;
  signals.active_sockets = 4;
  signals.cross_socket_rate = 0.9;
  EXPECT_EQ(classifier.Classify(signals), ContentionRegime::kPathological);
}

TEST(RegimeSignals, FromWindowComputesRatesAndSpread) {
  LockProfileSnapshot window;
  window.window_start_ns = 1'000'000'000;
  window.taken_at_ns = 2'000'000'000;  // 1s window
  window.acquisitions = 500;
  window.contentions = 100;
  window.cross_socket_handoffs = 40;
  window.socket_acquisitions[0] = 250;
  window.socket_acquisitions[1] = 225;
  window.socket_acquisitions[2] = 25;  // under the 10% share bar
  for (int i = 0; i < 100; ++i) {
    window.wait_ns.Record(10'000);
  }
  const RegimeSignals signals = RegimeSignals::FromWindow(window, false);
  EXPECT_DOUBLE_EQ(signals.contention_rate, 0.2);
  EXPECT_DOUBLE_EQ(signals.acquisitions_per_sec, 500.0);
  EXPECT_DOUBLE_EQ(signals.cross_socket_rate, 0.4);
  EXPECT_EQ(signals.active_sockets, 2u);
  EXPECT_GT(signals.wait_p99_ns, 0u);
  EXPECT_FALSE(signals.is_rw);
}

// --- hysteresis -------------------------------------------------------------

TEST(RegimeHysteresis, RequiresConsecutiveAgreement) {
  RegimeHysteresis hysteresis(2);
  EXPECT_EQ(hysteresis.stable(), ContentionRegime::kUncontended);
  EXPECT_EQ(hysteresis.Observe(ContentionRegime::kNumaSkewed),
            ContentionRegime::kUncontended);
  EXPECT_EQ(hysteresis.Observe(ContentionRegime::kNumaSkewed),
            ContentionRegime::kNumaSkewed);
}

TEST(RegimeHysteresis, FlipFlopNeverSwitches) {
  RegimeHysteresis hysteresis(2);
  for (int i = 0; i < 10; ++i) {
    hysteresis.Observe(ContentionRegime::kNumaSkewed);
    hysteresis.Observe(ContentionRegime::kUncontended);
  }
  EXPECT_EQ(hysteresis.stable(), ContentionRegime::kUncontended);
}

TEST(RegimeHysteresis, PendingRegimeChangeResetsOnNewVerdict) {
  RegimeHysteresis hysteresis(3);
  hysteresis.Observe(ContentionRegime::kNumaSkewed);
  hysteresis.Observe(ContentionRegime::kNumaSkewed);
  hysteresis.Observe(ContentionRegime::kPathological);  // resets the count
  hysteresis.Observe(ContentionRegime::kNumaSkewed);
  EXPECT_EQ(hysteresis.Observe(ContentionRegime::kNumaSkewed),
            ContentionRegime::kUncontended);
  EXPECT_EQ(hysteresis.Observe(ContentionRegime::kNumaSkewed),
            ContentionRegime::kNumaSkewed);
}

// --- candidate registry -----------------------------------------------------

TEST(PolicyCandidateRegistry, BuiltinsCoverActionableRegimes) {
  PolicyCandidateRegistry registry;
  registry.SeedBuiltins();
  EXPECT_EQ(registry.CandidateFor(ContentionRegime::kNumaSkewed, false).name,
            "numa_grouping");
  EXPECT_EQ(registry.CandidateFor(ContentionRegime::kPathological, false).name,
            "shuffle_fairness_guard");
  EXPECT_EQ(registry.CandidateFor(ContentionRegime::kReaderHeavy, true).name,
            "rw_reader_bias");
}

TEST(PolicyCandidateRegistry, PlainFallbackWhenNothingFits) {
  PolicyCandidateRegistry registry;
  registry.SeedBuiltins();
  // No builtin targets moderate; rw locks can't take the queue policies.
  EXPECT_TRUE(registry.CandidateFor(ContentionRegime::kModerate, false).IsPlain());
  EXPECT_TRUE(registry.CandidateFor(ContentionRegime::kNumaSkewed, true).IsPlain());
  EXPECT_TRUE(registry.CandidateFor(ContentionRegime::kUncontended, false).IsPlain());
}

TEST(PolicyCandidateRegistry, SkipListFallsBackToPlain) {
  PolicyCandidateRegistry registry;
  registry.SeedBuiltins();
  EXPECT_TRUE(registry
                  .CandidateFor(ContentionRegime::kNumaSkewed, false,
                                {"numa_grouping"})
                  .IsPlain());
}

TEST(PolicyCandidateRegistry, PlainNameIsReserved) {
  PolicyCandidateRegistry registry;
  PolicyCandidate candidate;
  candidate.name = kPlainCandidateName;
  EXPECT_FALSE(registry.Register(std::move(candidate)).ok());
}

TEST(PolicyCandidateRegistry, FindByName) {
  PolicyCandidateRegistry registry;
  registry.SeedBuiltins();
  EXPECT_TRUE(registry.FindByName("numa_grouping").ok());
  EXPECT_TRUE(registry.FindByName(kPlainCandidateName).ok());
  EXPECT_TRUE(registry.FindByName(kPlainCandidateName)->IsPlain());
  EXPECT_FALSE(registry.FindByName("no_such_policy").ok());
}

TEST(PolicyCandidateRegistry, BuiltinFactoriesProduceVerifiableSpecs) {
  PolicyCandidateRegistry registry;
  registry.SeedBuiltins();
  for (const std::string& name : registry.Names()) {
    if (name == kPlainCandidateName) {
      continue;
    }
    auto candidate = registry.FindByName(name);
    ASSERT_TRUE(candidate.ok()) << name;
    EXPECT_TRUE(candidate->source.empty()) << name;  // nothing to push
    auto spec = candidate->make();
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_TRUE(spec->VerifyAll().ok()) << name;
  }
}

// A text candidate keeps its source, takes for_rw from its hook, and an
// inadmissible source registers nothing.
TEST(PolicyCandidateRegistry, RegisterSourceKeepsTheText) {
  constexpr char kReaderBias[] = "; hook: rw_mode\n  mov r0, 1\n  exit\n";
  PolicyCandidateRegistry registry;
  ASSERT_TRUE(registry
                  .RegisterSource("bias", ContentionRegime::kReaderHeavy,
                                  kReaderBias)
                  .ok());
  const PolicyCandidate candidate =
      registry.CandidateFor(ContentionRegime::kReaderHeavy, /*is_rw=*/true);
  EXPECT_EQ(candidate.name, "bias");
  EXPECT_TRUE(candidate.for_rw);
  EXPECT_EQ(candidate.source, kReaderBias);
  ASSERT_TRUE(candidate.make().ok());

  EXPECT_FALSE(registry
                   .RegisterSource("broken", ContentionRegime::kModerate,
                                   "; hook: rw_mode\n  exit\n")
                   .ok());
  EXPECT_FALSE(registry.FindByName("broken").ok());
}

TEST(PolicyCandidateRegistry, SeedsFromPolicyDir) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "concord_autotune_casm_test";
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir / "my_numa_group.casm");
    out << "; hook: cmp_node\n"
        << "  ldxw r2, [r1+16]\n"
        << "  ldxw r3, [r1+56]\n"
        << "  jeq  r2, r3, same\n"
        << "  mov  r0, 0\n"
        << "  exit\n"
        << "same:\n"
        << "  mov  r0, 1\n"
        << "  exit\n";
  }
  {
    // No regime mapping in the filename: must be skipped, not guessed.
    std::ofstream out(dir / "mystery.casm");
    out << "; hook: cmp_node\n  mov r0, 0\n  exit\n";
  }
  PolicyCandidateRegistry registry;
  EXPECT_EQ(registry.SeedFromPolicyDir(dir.string()), 1);
  const PolicyCandidate loaded =
      registry.CandidateFor(ContentionRegime::kNumaSkewed, false);
  EXPECT_EQ(loaded.name, "my_numa_group");
  EXPECT_NE(loaded.source.find("; hook: cmp_node"), std::string::npos);
  auto spec = loaded.make();
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->VerifyAll().ok());
  std::filesystem::remove_all(dir);
}

// --- controller -------------------------------------------------------------

class AutotuneControllerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Concord& concord = Concord::Global();
    lock_id_ = concord.RegisterShflLock(lock_, "tuned", "test");
    AutotuneConfig config;
    config.canary.hysteresis_windows = 1;
    config.canary.canary_windows = 2;
    config.canary.cooldown_windows = 0;
    config.canary.min_window_acquisitions = 10;
    config.canary.promote_margin = 0.05;
    ASSERT_TRUE(AutotuneController::Global().Configure(config).ok());
    ASSERT_TRUE(AutotuneController::Global().Enroll(lock_id_).ok());
  }

  void TearDown() override {
    // Also resets the autotune controller (stops any worker first).
    Concord::Global().ResetForTest();
  }

  // Writes one synthetic profiling window into the control shard and
  // advances the fake clock so the next Tick sees it as a 100ms window.
  struct Window {
    std::uint64_t acquisitions = 0;
    std::uint64_t contentions = 0;
    std::uint64_t wait_each_ns = 0;   // one wait sample per contention
    std::uint64_t cross_socket = 0;
    bool two_sockets = false;
  };
  void Feed(const Window& window) {
    LockProfileStats& shard =
        Concord::Global().MutableStats(lock_id_)->ControlShard();
    shard.acquisitions.fetch_add(window.acquisitions);
    shard.contentions.fetch_add(window.contentions);
    if (window.two_sockets) {
      shard.socket_acquisitions[0].fetch_add(window.acquisitions / 2);
      shard.socket_acquisitions[1].fetch_add(window.acquisitions -
                                             window.acquisitions / 2);
    } else {
      shard.socket_acquisitions[0].fetch_add(window.acquisitions);
    }
    shard.cross_socket_handoffs.fetch_add(window.cross_socket);
    for (std::uint64_t i = 0; i < window.contentions; ++i) {
      shard.wait_ns.Record(window.wait_each_ns);
    }
    clock_.clock().AdvanceMs(100);
  }

  // One NUMA-skewed window: 50% contention, both sockets hot, most
  // contended grants crossing sockets.
  Window NumaWindow(std::uint64_t wait_each_ns) {
    return {/*acquisitions=*/100, /*contentions=*/50, wait_each_ns,
            /*cross_socket=*/40, /*two_sockets=*/true};
  }

  std::vector<AutotuneEvent> TickEvents() {
    return AutotuneController::Global().Tick();
  }

  static bool HasEvent(const std::vector<AutotuneEvent>& events,
                       AutotuneEventKind kind) {
    for (const AutotuneEvent& event : events) {
      if (event.kind == kind) {
        return true;
      }
    }
    return false;
  }

  ScopedManualControlLoop manual_loop_;
  ScopedFakeClock clock_;
  ShflLock lock_;
  std::uint64_t lock_id_ = 0;
};

TEST_F(AutotuneControllerTest, EnrollUnknownLockFails) {
  EXPECT_FALSE(AutotuneController::Global().Enroll(9999).ok());
}

TEST_F(AutotuneControllerTest, FirstTickOnlyBaselines) {
  EXPECT_TRUE(TickEvents().empty());
  EXPECT_TRUE(Concord::Global().AttachedPolicyName(lock_id_).empty());
}

TEST_F(AutotuneControllerTest, NumaRegimeStartsCanaryAndPromotesOnWin) {
  TickEvents();  // first snapshot
  Feed(NumaWindow(/*wait_each_ns=*/64'000));
  auto events = TickEvents();
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kRegimeChange));
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kCanaryStart));
  EXPECT_EQ(Concord::Global().AttachedPolicyName(lock_id_), "numa_grouping");

  // Two canary windows with 8x lower waits: clear promote.
  Feed(NumaWindow(/*wait_each_ns=*/8'000));
  EXPECT_TRUE(TickEvents().empty());
  Feed(NumaWindow(/*wait_each_ns=*/8'000));
  events = TickEvents();
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kPromote));
  EXPECT_EQ(Concord::Global().AttachedPolicyName(lock_id_), "numa_grouping");

  const std::string json = AutotuneController::Global().StatusJson();
  EXPECT_NE(json.find("\"incumbent\":\"numa_grouping\""), std::string::npos);
  EXPECT_NE(json.find("\"regime\":\"numa-skewed\""), std::string::npos);
}

TEST_F(AutotuneControllerTest, CanaryRollsBackOnP99Regression) {
  TickEvents();
  Feed(NumaWindow(/*wait_each_ns=*/8'000));
  ASSERT_TRUE(HasEvent(TickEvents(), AutotuneEventKind::kCanaryStart));

  // The canary makes the tail 16x worse: must roll back to the prior
  // (plain) configuration, and the candidate goes on the skip list.
  Feed(NumaWindow(/*wait_each_ns=*/128'000));
  TickEvents();
  Feed(NumaWindow(/*wait_each_ns=*/128'000));
  const auto events = TickEvents();
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kRollback));
  EXPECT_TRUE(Concord::Global().AttachedPolicyName(lock_id_).empty());

  // Still NUMA-skewed, but the only candidate is skipped: no new canary.
  Feed(NumaWindow(/*wait_each_ns=*/8'000));
  EXPECT_FALSE(HasEvent(TickEvents(), AutotuneEventKind::kCanaryStart));
}

TEST_F(AutotuneControllerTest, RollbackRestoresManuallyAttachedIncumbent) {
  // Operator attached the fairness guard by hand before enrollment; the
  // registry knows it, so it becomes the incumbent to restore on rollback.
  Concord& concord = Concord::Global();
  auto guard = MakeShuffleFairnessGuard();
  ASSERT_TRUE(guard.ok());
  ASSERT_TRUE(concord.Attach(lock_id_, std::move(guard->spec)).ok());
  ASSERT_TRUE(AutotuneController::Global().Unenroll(lock_id_).ok());
  ASSERT_TRUE(AutotuneController::Global().Enroll(lock_id_).ok());

  TickEvents();
  Feed(NumaWindow(/*wait_each_ns=*/8'000));
  ASSERT_TRUE(HasEvent(TickEvents(), AutotuneEventKind::kCanaryStart));
  EXPECT_EQ(concord.AttachedPolicyName(lock_id_), "numa_grouping");

  Feed(NumaWindow(/*wait_each_ns=*/128'000));
  TickEvents();
  Feed(NumaWindow(/*wait_each_ns=*/128'000));
  ASSERT_TRUE(HasEvent(TickEvents(), AutotuneEventKind::kRollback));
  EXPECT_EQ(concord.AttachedPolicyName(lock_id_), "shuffle_fairness_guard");
}

TEST_F(AutotuneControllerTest, RevertsToPlainWhenContentionDisappears) {
  TickEvents();
  Feed(NumaWindow(/*wait_each_ns=*/64'000));
  TickEvents();
  Feed(NumaWindow(/*wait_each_ns=*/8'000));
  TickEvents();
  Feed(NumaWindow(/*wait_each_ns=*/8'000));
  ASSERT_TRUE(HasEvent(TickEvents(), AutotuneEventKind::kPromote));
  ASSERT_EQ(Concord::Global().AttachedPolicyName(lock_id_), "numa_grouping");

  // Contention vanishes: uncontended regime wants plain, which needs no
  // canary — the policy is detached directly.
  Feed({/*acquisitions=*/100, /*contentions=*/1, /*wait_each_ns=*/1'000});
  const auto events = TickEvents();
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kPromote));
  EXPECT_TRUE(Concord::Global().AttachedPolicyName(lock_id_).empty());
}

TEST_F(AutotuneControllerTest, ContainmentSuspectRollsBackCanary) {
  TickEvents();
  Feed(NumaWindow(/*wait_each_ns=*/8'000));
  ASSERT_TRUE(HasEvent(TickEvents(), AutotuneEventKind::kCanaryStart));

  // A dispatch fault marks the canary policy suspect; the next tick must
  // roll back without waiting for the scoring verdict.
  ContainmentRegistry::Global().ReportFault(
      lock_id_, ContainmentFault::kDispatchFault, "test fault");
  Feed(NumaWindow(/*wait_each_ns=*/8'000));
  const auto events = TickEvents();
  ASSERT_TRUE(HasEvent(events, AutotuneEventKind::kRollback));
  EXPECT_TRUE(Concord::Global().AttachedPolicyName(lock_id_).empty());
}

TEST_F(AutotuneControllerTest, SparseWindowsStarveTheCanaryIntoAbort) {
  TickEvents();
  Feed(NumaWindow(/*wait_each_ns=*/8'000));
  ASSERT_TRUE(HasEvent(TickEvents(), AutotuneEventKind::kCanaryStart));

  // Windows below min_window_acquisitions never score; after
  // canary_windows * 8 total windows the canary aborts and rolls back.
  bool aborted = false;
  for (int i = 0; i < 20 && !aborted; ++i) {
    Feed({/*acquisitions=*/1, /*contentions=*/0, /*wait_each_ns=*/0});
    aborted = HasEvent(TickEvents(), AutotuneEventKind::kCanaryAbort);
  }
  EXPECT_TRUE(aborted);
  EXPECT_TRUE(Concord::Global().AttachedPolicyName(lock_id_).empty());
}

TEST_F(AutotuneControllerTest, StatusJsonListsEnrolledLockAndCandidates) {
  const std::string json = AutotuneController::Global().StatusJson();
  EXPECT_NE(json.find("\"running\":false"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tuned\""), std::string::npos);
  EXPECT_NE(json.find("numa_grouping"), std::string::npos);
  EXPECT_NE(json.find("\"incumbent\":\"plain\""), std::string::npos);
}

TEST_F(AutotuneControllerTest, UnenrollStopsManagement) {
  ASSERT_TRUE(AutotuneController::Global().Unenroll(lock_id_).ok());
  EXPECT_TRUE(AutotuneController::Global().Enrolled().empty());
  Feed(NumaWindow(/*wait_each_ns=*/8'000));
  EXPECT_TRUE(TickEvents().empty());
}

TEST_F(AutotuneControllerTest, EnableAutotuneFacadeStartsAndStops) {
  Concord& concord = Concord::Global();
  // SetUp already configured + enrolled; the facade only needs to put the
  // controller on the control loop.
  ASSERT_TRUE(concord.EnableAutotune("tuned").ok());
  EXPECT_TRUE(AutotuneController::Global().running());
  EXPECT_NE(concord.AutotuneStatusJson().find("\"running\":true"),
            std::string::npos);
  ASSERT_TRUE(concord.DisableAutotune().ok());
  EXPECT_FALSE(AutotuneController::Global().running());
}

TEST_F(AutotuneControllerTest, EnvKillSwitchBlocksEnable) {
  ::setenv("CONCORD_AUTOTUNE", "off", 1);
  EXPECT_FALSE(Concord::Global().EnableAutotune("tuned").ok());
  EXPECT_FALSE(AutotuneController::Global().running());
  ::unsetenv("CONCORD_AUTOTUNE");
}

}  // namespace
}  // namespace concord
