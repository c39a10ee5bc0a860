// Concord derives a lock's timing from what its verified programs read: hold
// accounting for a cs_ewma_ns reader or a get_cs_ewma_ns caller, wait stamps
// for a wait_ns reader, a tap clock read for a now_ns reader, and nothing for
// the rest. A precompiled program counts as reading every field of its
// context.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "src/base/time.h"
#include "src/bpf/assembler.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/concord/policy_source.h"
#include "src/sync/shfllock.h"
#include "src/topology/thread_context.h"

namespace concord {
namespace {

constexpr std::uint32_t kTimingBits =
    HookSite::kTrackHoldTime | HookSite::kTrackWaitTime;

class LockTimingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    id_ = Concord::Global().RegisterShflLock(lock_, "timing", "t");
  }
  void TearDown() override { Concord::Global().ResetForTest(); }

  // Attaches `spec` and returns the lock's mask.
  std::uint32_t MaskWith(PolicySpec spec) {
    const Status status = Concord::Global().Attach(id_, std::move(spec));
    EXPECT_TRUE(status.ok()) << status.ToString();
    return lock_.hook_site().mask();
  }

  // The mask with one BPF program from `source` attached at `kind`.
  std::uint32_t MaskWithBpf(HookKind kind, const std::string& source) {
    PolicySpec spec;
    spec.name = std::string("bpf_") + HookKindName(kind);
    auto program = AssembleProgram(spec.name, source, &DescriptorFor(kind));
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    if (program.ok()) {
      EXPECT_TRUE(spec.AddProgram(kind, std::move(*program)).ok());
    }
    return MaskWith(std::move(spec));
  }

  ShflLock lock_;
  std::uint64_t id_ = 0;
};

TEST_F(LockTimingTest, SocketsOnlyCmpNodeTimesNothing) {
  auto numa = MakeNumaGroupingPolicy();
  ASSERT_TRUE(numa.ok());
  EXPECT_EQ(MaskWith(numa->spec), HookSite::kCmpNode);
}

TEST_F(LockTimingTest, WaitReaderGetsWaitStamps) {
  // Reads curr_wait_ns.
  EXPECT_EQ(MaskWithBpf(HookKind::kCmpNode,
                        "ldxdw r2, [r1+40]\nmov r0, 0\nexit\n"),
            HookSite::kCmpNode | HookSite::kTrackWaitTime);
  auto guard = MakeShuffleFairnessGuard();  // reads shuffler_wait_ns
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(MaskWith(guard->spec),
            HookSite::kSkipShuffle | HookSite::kTrackWaitTime);
}

TEST_F(LockTimingTest, EwmaReaderGetsHoldAccounting) {
  Concord& concord = Concord::Global();
  ASSERT_TRUE(concord.EnableProfiling(id_).ok());
  const ShardedLockProfileStats* stats = concord.Stats(id_);
  EXPECT_EQ(stats->TimedOneIn(), HookSite::kTimedOneIn);

  // Reads curr_cs_ewma_ns.
  EXPECT_EQ(MaskWithBpf(HookKind::kCmpNode,
                        "ldxdw r2, [r1+48]\nmov r0, 0\nexit\n") &
                kTimingBits,
            HookSite::kTrackHoldTime);
  EXPECT_EQ(stats->TimedOneIn(), 1u);

  ASSERT_TRUE(concord.Detach(id_).ok());
  EXPECT_EQ(lock_.hook_site().mask() & kTimingBits, 0u);
  EXPECT_EQ(stats->TimedOneIn(), HookSite::kTimedOneIn);

  // A tap that only calls the helper.
  EXPECT_EQ(MaskWithBpf(HookKind::kLockRelease,
                        "call get_cs_ewma_ns\nmov r0, 0\nexit\n") &
                kTimingBits,
            HookSite::kTrackHoldTime);
  EXPECT_EQ(stats->TimedOneIn(), 1u);

  auto scl = MakeSclPolicy();
  ASSERT_TRUE(scl.ok());
  EXPECT_EQ(MaskWith(scl->spec) & kTimingBits, HookSite::kTrackHoldTime);
  EXPECT_EQ(stats->TimedOneIn(), 1u);
}

TEST_F(LockTimingTest, PrecompiledProgramsReadTheirWholeContext) {
  const Program::NativeFn zero = [](void*, void*) { return std::uint64_t{0}; };
  PolicySpec decision;
  decision.name = "native_cmp_node";
  decision.AddNative(HookKind::kCmpNode, decision.name, zero);
  EXPECT_EQ(MaskWith(std::move(decision)), HookSite::kCmpNode | kTimingBits);

  // A tap context carries neither a wait nor an EWMA.
  PolicySpec tap;
  tap.name = "native_lock_release";
  tap.AddNative(HookKind::kLockRelease, tap.name, zero);
  EXPECT_EQ(MaskWith(std::move(tap)), HookSite::kLockRelease);
}

// lock_acquire is never stamped by the lock, so the trampoline reads the
// clock for a program that reads now_ns, even on an untimed fast path.
TEST_F(LockTimingTest, NowReaderSeesTheClockOnAFastPathAcquisition) {
  constexpr char kSource[] = R"(
    ; hook: lock_acquire
    ldxdw r6, [r1+8]      ; now_ns
    stxdw [r10-16], r6
    stw   [r10-4], 0
    mov   r1, 0
    mov   r2, r10
    add   r2, -4
    mov   r3, r10
    add   r3, -16
    call  map_update_elem ; scratch[0] = now_ns
    mov   r0, 0
    exit
  )";
  auto spec = LoadPolicy("stamp_acquire", kSource);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const std::shared_ptr<BpfMap> scratch = spec->maps.at(0);
  EXPECT_EQ(MaskWith(std::move(*spec)), HookSite::kLockAcquire);

  const std::uint64_t before = MonotonicNowNs();
  lock_.Lock();
  lock_.Unlock();
  std::uint64_t now_ns = 0;
  ASSERT_TRUE(scratch->LookupTyped(std::uint32_t{0}, &now_ns));
  EXPECT_GE(now_ns, before);
  EXPECT_LE(now_ns, MonotonicNowNs());
}

// The text path: a .casm cmp_node that reads curr_cs_ewma_ns, loaded the
// way the RPC verb, the fleet agent and autotune's seeder load policies,
// gets hold accounting, so the EWMA it reads is fed.
TEST_F(LockTimingTest, TextPolicyReadingEwmaGetsHoldAccounting) {
  constexpr char kSource[] = R"(
    ; hook: cmp_node
    ldxdw r2, [r1+48]     ; curr_cs_ewma_ns
    jlt   r2, 1000000, quick
    mov   r0, 0
    exit
  quick:
    mov   r0, 1
    exit
  )";
  auto spec = LoadPolicy("scl_text", kSource);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(MaskWith(std::move(*spec)),
            HookSite::kCmpNode | HookSite::kTrackHoldTime);

  ThreadContext& ctx = Self();
  const std::uint64_t before =
      ctx.cs_length_ewma_ns.load(std::memory_order_relaxed);
  {
    ShflGuard guard(lock_);
    BurnNs(200'000);
  }
  // One EWMA step (alpha 1/8) towards a hold of at least 200us.
  EXPECT_GE(ctx.cs_length_ewma_ns.load(std::memory_order_relaxed),
            before - before / 8 + 200'000 / 8);
}

}  // namespace
}  // namespace concord
