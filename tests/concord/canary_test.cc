// The canary engine (src/concord/autotune/canary.h) on a fake plane: a
// chooser that offers one candidate for the NUMA-skewed regime and an
// actuator that records every apply and refuses the names it is told to.
// These pin the edge rules the in-process controller and the fleet agent
// used to disagree on.

#include "src/concord/autotune/canary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace concord {
namespace {

constexpr char kNuma[] = "numa";
constexpr char kGuard[] = "guard";

class CanaryEngineTest : public ::testing::Test {
 protected:
  CanaryEngineTest()
      : engine_({[this](const CanaryEngine::Lock&, ContentionRegime regime,
                        const std::vector<std::string>& skip) {
                   const bool skipped =
                       std::find(skip.begin(), skip.end(), kNuma) != skip.end();
                   return offer_numa_ && !skipped &&
                                  regime == ContentionRegime::kNumaSkewed
                              ? std::string(kNuma)
                              : std::string(kPlainCandidateName);
                 },
                 [this](const CanaryEngine::Lock&, const std::string& name,
                        std::uint64_t, std::vector<AutotuneEvent>&) {
                   applied_.push_back(name);
                   if (refused_.count(name) != 0) {
                     return InternalError("refused " + name);
                   }
                   attached_ = name;
                   return Status::Ok();
                 }}) {
    CanaryConfig config;
    config.hysteresis_windows = 1;
    config.canary_windows = 2;
    config.cooldown_windows = 0;
    config.min_window_acquisitions = 10;
    engine_.set_config(config);
    lock_.name = "l";
    lock_.hysteresis = RegimeHysteresis(config.hysteresis_windows);
  }

  // Half the acquisitions contended, both sockets hot, most contended
  // grants crossing sockets: the NUMA-skewed regime.
  static LockProfileSnapshot NumaWindow(std::uint64_t acquisitions,
                                        std::uint64_t wait_each_ns) {
    LockProfileSnapshot window;
    window.acquisitions = acquisitions;
    window.contentions = acquisitions / 2;
    window.socket_acquisitions[0] = acquisitions / 2;
    window.socket_acquisitions[1] = acquisitions - acquisitions / 2;
    window.cross_socket_handoffs = window.contentions * 4 / 5;
    for (std::uint64_t i = 0; i < window.contentions; ++i) {
      window.wait_ns.Record(wait_each_ns);
    }
    return window;
  }

  // The same contention on one socket, with no cross-socket grants: the
  // moderate regime, which the chooser maps to plain.
  static LockProfileSnapshot ModerateWindow(std::uint64_t acquisitions,
                                            std::uint64_t wait_each_ns) {
    LockProfileSnapshot window = NumaWindow(acquisitions, wait_each_ns);
    window.socket_acquisitions[0] = acquisitions;
    window.socket_acquisitions[1] = 0;
    window.cross_socket_handoffs = 0;
    return window;
  }

  std::vector<AutotuneEvent> Tick(const LockProfileSnapshot& window) {
    std::vector<AutotuneEvent> events;
    engine_.TickLock(lock_, window, ++now_ns_, events);
    return events;
  }

  static bool Has(const std::vector<AutotuneEvent>& events,
                  AutotuneEventKind kind) {
    return std::any_of(events.begin(), events.end(),
                       [&](const AutotuneEvent& e) { return e.kind == kind; });
  }

  // Starts a canary of kNuma from a qualifying NUMA window.
  void StartNumaCanary() {
    ASSERT_TRUE(Has(Tick(NumaWindow(100, 8'000)),
                    AutotuneEventKind::kCanaryStart));
    ASSERT_EQ(attached_, kNuma);
  }

  // Canaries kNuma against an 8us baseline and promotes it on 1us waits.
  void PromoteNuma() {
    StartNumaCanary();
    Tick(NumaWindow(100, 1'000));
    ASSERT_TRUE(Has(Tick(NumaWindow(100, 1'000)), AutotuneEventKind::kPromote));
    ASSERT_EQ(lock_.incumbent, kNuma);
  }

  // The event of `kind` about `candidate` in `events`, if any.
  static bool HasFor(const std::vector<AutotuneEvent>& events,
                     AutotuneEventKind kind, const std::string& candidate) {
    return std::any_of(events.begin(), events.end(),
                       [&](const AutotuneEvent& e) {
                         return e.kind == kind && e.candidate == candidate;
                       });
  }

  bool offer_numa_ = true;
  std::set<std::string> refused_;
  std::vector<std::string> applied_;
  std::string attached_ = kPlainCandidateName;
  std::uint64_t now_ns_ = 0;
  CanaryEngine engine_;
  CanaryEngine::Lock lock_;
};

// The fleet used to start a canary on any window once it had a baseline; a
// canary now starts only from a qualifying window.
TEST_F(CanaryEngineTest, CanaryStartsOnlyOnAQualifyingWindow) {
  offer_numa_ = false;
  EXPECT_TRUE(Has(Tick(NumaWindow(100, 8'000)),
                  AutotuneEventKind::kRegimeChange));
  ASSERT_EQ(lock_.hysteresis.stable(), ContentionRegime::kNumaSkewed);
  ASSERT_TRUE(lock_.have_baseline);

  // The candidate appears, but this window is below min_window_acquisitions.
  offer_numa_ = true;
  EXPECT_TRUE(Tick(NumaWindow(4, 8'000)).empty());
  EXPECT_TRUE(applied_.empty());
  EXPECT_EQ(lock_.mode, CanaryEngine::Mode::kObserving);

  EXPECT_TRUE(Has(Tick(NumaWindow(100, 8'000)),
                  AutotuneEventKind::kCanaryStart));
  EXPECT_EQ(applied_, std::vector<std::string>{kNuma});
}

// The controller fell back to plain without a word; the fleet reported the
// failure but stayed on the losing candidate. Now: `error`, then plain.
TEST_F(CanaryEngineTest, FailedRestoreEmitsErrorAndFallsBackToPlain) {
  lock_.incumbent = kGuard;
  attached_ = kGuard;
  StartNumaCanary();

  refused_.insert(kGuard);
  Tick(NumaWindow(100, 128'000));
  const auto events = Tick(NumaWindow(100, 128'000));
  ASSERT_TRUE(Has(events, AutotuneEventKind::kRollback));
  EXPECT_TRUE(Has(events, AutotuneEventKind::kError));
  EXPECT_EQ(applied_, (std::vector<std::string>{kNuma, kGuard,
                                                kPlainCandidateName}));
  EXPECT_EQ(attached_, kPlainCandidateName);
  EXPECT_EQ(lock_.incumbent, kPlainCandidateName);
  EXPECT_EQ(lock_.mode, CanaryEngine::Mode::kObserving);
}

// The controller dropped a failed revert silently; it emits `error` now, and
// the incumbent stays what is really attached.
TEST_F(CanaryEngineTest, FailedRevertToPlainEmitsError) {
  StartNumaCanary();
  Tick(NumaWindow(100, 1'000));
  ASSERT_TRUE(Has(Tick(NumaWindow(100, 1'000)), AutotuneEventKind::kPromote));
  ASSERT_EQ(lock_.incumbent, kNuma);

  // Contention is gone: the uncontended regime wants plain.
  refused_.insert(kPlainCandidateName);
  LockProfileSnapshot quiet;
  quiet.acquisitions = 100;
  const auto events = Tick(quiet);
  EXPECT_TRUE(Has(events, AutotuneEventKind::kError));
  EXPECT_FALSE(Has(events, AutotuneEventKind::kPromote));
  EXPECT_EQ(lock_.incumbent, kNuma);
  EXPECT_EQ(attached_, kNuma);
}

// A promoted policy can remove the signal its regime was chosen on: NUMA
// grouping ends the cross-socket grants, so the lock reads moderate, which
// maps to plain. Plain then runs as a canary, and the incumbent, still
// winning, stays; plain is backed off and the incumbent holds meanwhile.
TEST_F(CanaryEngineTest, WinningIncumbentIsHeldUnderAModerateRegime) {
  PromoteNuma();
  auto events = Tick(ModerateWindow(100, 1'000));
  ASSERT_TRUE(Has(events, AutotuneEventKind::kRegimeChange));
  ASSERT_EQ(lock_.hysteresis.stable(), ContentionRegime::kModerate);
  EXPECT_TRUE(HasFor(events, AutotuneEventKind::kCanaryStart,
                     kPlainCandidateName));
  EXPECT_FALSE(Has(events, AutotuneEventKind::kPromote));
  EXPECT_EQ(attached_, kPlainCandidateName);

  // Plain waits 64x longer than the incumbent did.
  Tick(ModerateWindow(100, 64'000));
  events = Tick(ModerateWindow(100, 64'000));
  EXPECT_TRUE(HasFor(events, AutotuneEventKind::kRollback, kPlainCandidateName));
  EXPECT_EQ(attached_, kNuma);
  EXPECT_EQ(lock_.incumbent, kNuma);
  ASSERT_EQ(lock_.skip.size(), 1u);
  EXPECT_EQ(lock_.skip[0].name, kPlainCandidateName);

  // While plain is backed off the engine holds the incumbent.
  const std::size_t applies = applied_.size();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(Tick(ModerateWindow(100, 1'000)).empty());
  }
  EXPECT_EQ(applied_.size(), applies);
  EXPECT_EQ(attached_, kNuma);
}

// An incumbent that no longer beats plain by the margin loses to it.
TEST_F(CanaryEngineTest, PlainIsPromotedOnATie) {
  PromoteNuma();
  ASSERT_TRUE(HasFor(Tick(ModerateWindow(100, 8'000)),
                     AutotuneEventKind::kCanaryStart, kPlainCandidateName));
  Tick(ModerateWindow(100, 8'000));
  const auto events = Tick(ModerateWindow(100, 8'000));
  EXPECT_TRUE(HasFor(events, AutotuneEventKind::kPromote, kPlainCandidateName));
  EXPECT_EQ(attached_, kPlainCandidateName);
  EXPECT_EQ(lock_.incumbent, kPlainCandidateName);
  EXPECT_TRUE(lock_.skip.empty());
}

// With no contention there is nothing to score: plain returns directly.
TEST_F(CanaryEngineTest, UncontendedRegimeStillRevertsDirectly) {
  PromoteNuma();
  LockProfileSnapshot quiet;
  quiet.acquisitions = 100;
  const auto events = Tick(quiet);
  EXPECT_TRUE(HasFor(events, AutotuneEventKind::kPromote, kPlainCandidateName));
  EXPECT_FALSE(Has(events, AutotuneEventKind::kCanaryStart));
  EXPECT_EQ(attached_, kPlainCandidateName);
  EXPECT_EQ(lock_.incumbent, kPlainCandidateName);
  EXPECT_EQ(lock_.mode, CanaryEngine::Mode::kObserving);
}

// Both planes share one event vocabulary; the strings are what
// autotune.status and agent.status report, so they never change.
TEST_F(CanaryEngineTest, EventKindNamesAreStable) {
  const std::vector<std::pair<AutotuneEventKind, std::string>> names = {
      {AutotuneEventKind::kRegimeChange, "regime-change"},
      {AutotuneEventKind::kCanaryStart, "canary-start"},
      {AutotuneEventKind::kPromote, "promote"},
      {AutotuneEventKind::kRollback, "rollback"},
      {AutotuneEventKind::kCanaryAbort, "canary-abort"},
      {AutotuneEventKind::kQuarantineExit, "quarantine-exit"},
      {AutotuneEventKind::kError, "error"},
      {AutotuneEventKind::kWorkerJoin, "worker-join"},
      {AutotuneEventKind::kWorkerEvict, "worker-evict"},
  };
  for (const auto& [kind, name] : names) {
    EXPECT_EQ(AutotuneEventKindName(kind), name);
  }
}

// Both planes render their status through AppendStatusJson. A canary-mode
// lock of the controller (which has a lock id) and of the fleet (lock id 0,
// keyed by name) render one key set, the one docs/AUTOTUNE.md documents.
TEST_F(CanaryEngineTest, CanaryLockRendersTheSameKeysForBothPlanes) {
  StartNumaCanary();
  const auto keys = [&](std::uint64_t lock_id) {
    lock_.lock_id = lock_id;
    JsonWriter json;
    json.BeginObject();
    engine_.AppendStatusJson(json, PolicyCandidateRegistry(), {&lock_});
    json.EndObject();
    std::vector<std::string> out;
    auto doc = ParseJson(json.str());
    if (!doc.ok()) {
      return out;
    }
    for (const auto& [key, value] : doc->object) {
      out.push_back(key);
    }
    const JsonValue* locks = doc->Find("locks");
    const JsonValue* events = doc->Find("events");
    if (locks == nullptr || locks->array.size() != 1 || events == nullptr ||
        events->array.empty()) {
      return out;
    }
    for (const auto& [key, value] : locks->array[0].object) {
      out.push_back("locks." + key);
      for (const auto& [inner, unused] : value.object) {
        out.push_back("locks." + key + "." + inner);
      }
    }
    for (const auto& [key, value] : events->array.back().object) {
      out.push_back("events." + key);
    }
    return out;
  };
  const std::vector<std::string> expected = {
      "candidates",
      "locks",
      "events",
      "locks.lock_id",
      "locks.name",
      "locks.regime",
      "locks.mode",
      "locks.incumbent",
      "locks.cooldown_windows",
      "locks.baseline_wait_p50_ns",
      "locks.baseline_wait_p99_ns",
      "locks.canary",
      "locks.canary.candidate",
      "locks.canary.scored_windows",
      "locks.canary.total_windows",
      "events.ts_ns",
      "events.lock_id",
      "events.lock",
      "events.pid",
      "events.kind",
      "events.regime",
      "events.candidate",
      "events.detail",
  };
  EXPECT_EQ(keys(7), expected);
  EXPECT_EQ(keys(0), expected);
}

// A canary that never collects its scoring windows is aborted after
// canary_windows * kCanaryPatience windows and the incumbent restored.
TEST_F(CanaryEngineTest, StarvedCanaryAbortsAndRestoresTheIncumbent) {
  StartNumaCanary();
  bool aborted = false;
  for (std::uint32_t i = 0; i < 2 * CanaryEngine::kCanaryPatience && !aborted;
       ++i) {
    aborted = Has(Tick(NumaWindow(2, 8'000)), AutotuneEventKind::kCanaryAbort);
  }
  EXPECT_TRUE(aborted);
  EXPECT_EQ(attached_, kPlainCandidateName);
  ASSERT_EQ(lock_.skip.size(), 1u);
  EXPECT_EQ(lock_.skip[0].name, kNuma);
}

}  // namespace
}  // namespace concord
