// Chaos coverage for the autotune control plane: the "autotune.decide" fault
// point (src/base/fault.h) wedges the controller's decision step, and the
// test proves a wedged controller loses decisions — never attachment-state
// consistency — then recovers the moment the fault is disarmed. Also drives
// the containment-triggered rollback path under an injected policy fault.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/fault.h"
#include "src/base/time.h"
#include "src/concord/autotune/controller.h"
#include "src/concord/concord.h"
#include "src/concord/containment.h"
#include "src/concord/control_loop.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

#if CONCORD_FAULT_INJECTION

class AutotuneChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lock_id_ = Concord::Global().RegisterShflLock(lock_, "chaos_tuned", "chaos");
    AutotuneConfig config;
    config.canary.hysteresis_windows = 1;
    config.canary.canary_windows = 2;
    config.canary.cooldown_windows = 0;
    config.canary.min_window_acquisitions = 10;
    ASSERT_TRUE(AutotuneController::Global().Configure(config).ok());
    ASSERT_TRUE(AutotuneController::Global().Enroll(lock_id_).ok());
  }

  void TearDown() override {
    Concord::Global().ResetForTest();
    FaultRegistry::Global().DisarmAll();
  }

  // One synthetic NUMA-skewed window written straight into the control
  // shard, then the clock advances so the next Tick sees a fresh window.
  void FeedNumaWindow(std::uint64_t wait_each_ns) {
    LockProfileStats& shard =
        Concord::Global().MutableStats(lock_id_)->ControlShard();
    shard.acquisitions.fetch_add(100);
    shard.contentions.fetch_add(50);
    shard.socket_acquisitions[0].fetch_add(50);
    shard.socket_acquisitions[1].fetch_add(50);
    shard.cross_socket_handoffs.fetch_add(40);
    for (int i = 0; i < 50; ++i) {
      shard.wait_ns.Record(wait_each_ns);
    }
    clock_.clock().AdvanceMs(100);
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

// An armed decide fault must freeze the decision loop: regime-worthy
// windows keep arriving, yet no events are emitted and nothing is ever
// attached. Disarming resumes decisions on the very next tick.
TEST_F(AutotuneChaosTest, WedgedDecideStepMakesNoDecisions) {
  auto& controller = AutotuneController::Global();
  controller.Tick();  // first snapshot

  FaultRegistry::Global().Arm("autotune.decide", {});
  const std::uint64_t evaluations_before =
      FaultRegistry::Global().Evaluations("autotune.decide");
  for (int i = 0; i < 5; ++i) {
    FeedNumaWindow(/*wait_each_ns=*/64'000);
    EXPECT_TRUE(controller.Tick().empty());
    EXPECT_TRUE(Concord::Global().AttachedPolicyName(lock_id_).empty());
  }
  // The fault point really sat on the decision path every tick.
  EXPECT_GE(FaultRegistry::Global().Evaluations("autotune.decide") -
                evaluations_before,
            5u);
  EXPECT_GE(FaultRegistry::Global().Fires("autotune.decide"), 5u);

  FaultRegistry::Global().Disarm("autotune.decide");
  FeedNumaWindow(/*wait_each_ns=*/64'000);
  const auto events = controller.Tick();
  EXPECT_TRUE(HasEvent(events, AutotuneEventKind::kRegimeChange));
  EXPECT_TRUE(HasEvent(events, AutotuneEventKind::kCanaryStart));
  EXPECT_EQ(Concord::Global().AttachedPolicyName(lock_id_), "numa_grouping");
}

// A fault that wedges the controller mid-canary must not strand the canary
// policy: sampling continues, and when the controller comes back the canary
// is scored against the pre-canary baseline as if nothing happened.
TEST_F(AutotuneChaosTest, WedgeDuringCanaryResumesScoringCleanly) {
  auto& controller = AutotuneController::Global();
  controller.Tick();
  FeedNumaWindow(/*wait_each_ns=*/64'000);
  ASSERT_TRUE(HasEvent(controller.Tick(), AutotuneEventKind::kCanaryStart));

  FaultRegistry::Global().Arm("autotune.decide", {});
  for (int i = 0; i < 3; ++i) {
    FeedNumaWindow(/*wait_each_ns=*/8'000);
    EXPECT_TRUE(controller.Tick().empty());
    // The canary stays attached the whole time the controller is wedged.
    EXPECT_EQ(Concord::Global().AttachedPolicyName(lock_id_), "numa_grouping");
  }
  FaultRegistry::Global().Disarm("autotune.decide");

  FeedNumaWindow(/*wait_each_ns=*/8'000);
  controller.Tick();
  FeedNumaWindow(/*wait_each_ns=*/8'000);
  EXPECT_TRUE(HasEvent(controller.Tick(), AutotuneEventKind::kPromote));
  EXPECT_EQ(Concord::Global().AttachedPolicyName(lock_id_), "numa_grouping");
}

// Containment outranks the wedge: a canary whose policy is reported faulty
// is rolled back on the next tick even while "autotune.decide" is armed,
// because the containment check runs before the fault point.
TEST_F(AutotuneChaosTest, ContainmentRollbackFiresEvenWhileWedged) {
  auto& controller = AutotuneController::Global();
  controller.Tick();
  FeedNumaWindow(/*wait_each_ns=*/64'000);
  ASSERT_TRUE(HasEvent(controller.Tick(), AutotuneEventKind::kCanaryStart));
  ASSERT_EQ(Concord::Global().AttachedPolicyName(lock_id_), "numa_grouping");

  FaultRegistry::Global().Arm("autotune.decide", {});
  ContainmentRegistry::Global().ReportFault(
      lock_id_, ContainmentFault::kDispatchFault, "chaos-injected fault");
  FeedNumaWindow(/*wait_each_ns=*/8'000);
  const auto events = controller.Tick();
  EXPECT_TRUE(HasEvent(events, AutotuneEventKind::kRollback));
  EXPECT_TRUE(Concord::Global().AttachedPolicyName(lock_id_).empty());
}

#endif  // CONCORD_FAULT_INJECTION

}  // namespace
}  // namespace concord
