// Decision-level tests for the ready-made policies: each program is
// verified under its hook's capability mask and then executed directly in
// the VM with crafted contexts.

#include "src/concord/policies.h"

#include <ostream>
#include <utility>

#include <gtest/gtest.h>

#include "src/bpf/verifier.h"
#include "src/bpf/vm.h"
#include "src/concord/hooks.h"
#include "src/topology/thread_context.h"

namespace concord {
namespace {

// Verifies every program in the policy under its hook's rules and returns
// the single program attached at `kind`.
Program& VerifiedProgram(TunablePolicy& policy, HookKind kind) {
  Status status = policy.spec.VerifyAll();
  EXPECT_TRUE(status.ok()) << status.ToString();
  HookChain& chain = policy.spec.ChainFor(kind);
  EXPECT_EQ(chain.programs.size(), 1u);
  return chain.programs.front();
}

ShflWaiterView MakeWaiter(std::uint32_t socket, std::int32_t priority = 0,
                          std::uint32_t locks_held = 0,
                          std::uint64_t cs_ewma = 0, std::uint32_t vcpu = 0) {
  ShflWaiterView view;
  view.socket = socket;
  view.vcpu = vcpu;
  view.priority = priority;
  view.locks_held = locks_held;
  view.cs_ewma_ns = cs_ewma;
  return view;
}

TEST(PoliciesTest, NumaGroupingMatchesSameSocketOnly) {
  auto policy = MakeNumaGroupingPolicy();
  ASSERT_TRUE(policy.ok());
  Program& program = VerifiedProgram(*policy, HookKind::kCmpNode);

  CmpNodeCtx same{MakeWaiter(3), MakeWaiter(3)};
  CmpNodeCtx different{MakeWaiter(3), MakeWaiter(5)};
  EXPECT_EQ(BpfVm::Run(program, &same), 1u);
  EXPECT_EQ(BpfVm::Run(program, &different), 0u);
}

TEST(PoliciesTest, PriorityBoostRespectsThresholdKnob) {
  auto policy = MakePriorityBoostPolicy();
  ASSERT_TRUE(policy.ok());
  Program& program = VerifiedProgram(*policy, HookKind::kCmpNode);

  CmpNodeCtx low{MakeWaiter(0), MakeWaiter(1, /*priority=*/0)};
  CmpNodeCtx high{MakeWaiter(0), MakeWaiter(1, /*priority=*/5)};
  EXPECT_EQ(BpfVm::Run(program, &low), 0u);   // default threshold 1
  EXPECT_EQ(BpfVm::Run(program, &high), 1u);

  // Raise the threshold live: priority 5 no longer qualifies.
  ASSERT_TRUE(policy->SetKnob(0, 10).ok());
  EXPECT_EQ(BpfVm::Run(program, &high), 0u);
  CmpNodeCtx vip{MakeWaiter(0), MakeWaiter(1, /*priority=*/10)};
  EXPECT_EQ(BpfVm::Run(program, &vip), 1u);
}

TEST(PoliciesTest, LockInheritanceBoostsNestedAcquirers) {
  auto policy = MakeLockInheritancePolicy();
  ASSERT_TRUE(policy.ok());
  Program& program = VerifiedProgram(*policy, HookKind::kCmpNode);

  CmpNodeCtx bare{MakeWaiter(0), MakeWaiter(1, 0, /*locks_held=*/0)};
  CmpNodeCtx nested{MakeWaiter(0), MakeWaiter(1, 0, /*locks_held=*/2)};
  EXPECT_EQ(BpfVm::Run(program, &bare), 0u);
  EXPECT_EQ(BpfVm::Run(program, &nested), 1u);
}

TEST(PoliciesTest, SclBoostsShortCriticalSections) {
  auto policy = MakeSclPolicy();
  ASSERT_TRUE(policy.ok());
  Program& program = VerifiedProgram(*policy, HookKind::kCmpNode);

  // Default limit 1ms.
  CmpNodeCtx quick{MakeWaiter(0), MakeWaiter(1, 0, 0, /*cs_ewma=*/10'000)};
  CmpNodeCtx hog{MakeWaiter(0), MakeWaiter(1, 0, 0, /*cs_ewma=*/50'000'000)};
  EXPECT_EQ(BpfVm::Run(program, &quick), 1u);
  EXPECT_EQ(BpfVm::Run(program, &hog), 0u);

  ASSERT_TRUE(policy->SetKnob(0, 5'000).ok());
  EXPECT_EQ(BpfVm::Run(program, &quick), 0u);  // 10us now over the 5us limit
}

TEST(PoliciesTest, AmpPolicyPrefersFastCores) {
  auto policy = MakeAmpFastCorePolicy();
  ASSERT_TRUE(policy.ok());
  Program& program = VerifiedProgram(*policy, HookKind::kCmpNode);

  CmpNodeCtx fast{MakeWaiter(0), MakeWaiter(1, 0, 0, 0, /*vcpu=*/2)};
  CmpNodeCtx slow{MakeWaiter(0), MakeWaiter(1, 0, 0, 0, /*vcpu=*/9)};
  EXPECT_EQ(BpfVm::Run(program, &fast), 1u);  // default fast-core count 4
  EXPECT_EQ(BpfVm::Run(program, &slow), 0u);
}

TEST(PoliciesTest, VcpuPreemptionPolicyReadsLiveAnnotations) {
  auto policy = MakeVcpuPreemptionPolicy();
  ASSERT_TRUE(policy.ok());
  Program& program = VerifiedProgram(*policy, HookKind::kCmpNode);

  // Annotate the current thread (a registered task) as non-preemptible and
  // point the candidate view at it.
  ThreadContext& ctx = Self();
  ctx.preemptible.store(0, std::memory_order_relaxed);
  CmpNodeCtx pinned{MakeWaiter(0), MakeWaiter(1)};
  pinned.curr.task_id = ctx.task_id;
  EXPECT_EQ(BpfVm::Run(program, &pinned), 1u);  // boost the pinned vCPU

  ctx.preemptible.store(1, std::memory_order_relaxed);
  EXPECT_EQ(BpfVm::Run(program, &pinned), 0u);

  // Unknown task ids default to preemptible (no boost) rather than crash.
  CmpNodeCtx unknown{MakeWaiter(0), MakeWaiter(1)};
  unknown.curr.task_id = 999999;
  EXPECT_EQ(BpfVm::Run(program, &unknown), 0u);
  ctx.preemptible.store(1, std::memory_order_relaxed);
}

TEST(PoliciesTest, AdaptiveParkingUsesSpinKnob) {
  auto policy = MakeAdaptiveParkingPolicy();
  ASSERT_TRUE(policy.ok());
  Program& program = VerifiedProgram(*policy, HookKind::kScheduleWaiter);

  ScheduleWaiterCtx early{MakeWaiter(0), /*spin_iterations=*/10, 0};
  ScheduleWaiterCtx late{MakeWaiter(0), /*spin_iterations=*/1000, 0};
  EXPECT_EQ(BpfVm::Run(program, &early), 0u);  // default 256
  EXPECT_EQ(BpfVm::Run(program, &late), 1u);

  // "Never park": switch the blocking lock to rwlock-like spinning live.
  ASSERT_TRUE(policy->SetKnob(0, ~0ull).ok());
  EXPECT_EQ(BpfVm::Run(program, &late), 0u);
}

TEST(PoliciesTest, FairnessGuardSkipsForLongSufferingHead) {
  auto policy = MakeShuffleFairnessGuard();
  ASSERT_TRUE(policy.ok());
  Program& program = VerifiedProgram(*policy, HookKind::kSkipShuffle);

  SkipShuffleCtx fresh{MakeWaiter(0)};
  fresh.shuffler.wait_ns = 1'000;
  SkipShuffleCtx suffering{MakeWaiter(0)};
  suffering.shuffler.wait_ns = 100'000'000;  // 100ms > default 10ms
  EXPECT_EQ(BpfVm::Run(program, &fresh), 0u);
  EXPECT_EQ(BpfVm::Run(program, &suffering), 1u);
}

TEST(PoliciesTest, RwSwitchReturnsKnobMode) {
  auto policy = MakeRwSwitchPolicy(RwMode::kReaderBias);
  ASSERT_TRUE(policy.ok());
  Status status = policy->spec.VerifyAll();
  ASSERT_TRUE(status.ok()) << status.ToString();
  Program& program = policy->spec.ChainFor(HookKind::kRwMode).programs.front();

  RwModeCtx ctx{42};
  EXPECT_EQ(BpfVm::Run(program, &ctx),
            static_cast<std::uint64_t>(RwMode::kReaderBias));
  ASSERT_TRUE(
      policy->SetKnob(0, static_cast<std::uint64_t>(RwMode::kWriterOnly)).ok());
  EXPECT_EQ(BpfVm::Run(program, &ctx),
            static_cast<std::uint64_t>(RwMode::kWriterOnly));
}

TEST(PoliciesTest, BpfProfilerCountsTaps) {
  auto policy = MakeBpfProfilerPolicy();
  ASSERT_TRUE(policy.ok());
  Status status = policy->spec.VerifyAll();
  ASSERT_TRUE(status.ok()) << status.ToString();

  ProfileCtx ctx{1, 0, 0, 0};
  Program& acquire =
      policy->spec.ChainFor(HookKind::kLockAcquire).programs.front();
  Program& release =
      policy->spec.ChainFor(HookKind::kLockRelease).programs.front();
  for (int i = 0; i < 5; ++i) {
    BpfVm::Run(acquire, &ctx);
  }
  BpfVm::Run(release, &ctx);
  EXPECT_EQ(policy->Count(HookKind::kLockAcquire), 5u);
  EXPECT_EQ(policy->Count(HookKind::kLockRelease), 1u);
  EXPECT_EQ(policy->Count(HookKind::kLockContended), 0u);
}

TEST(PoliciesTest, LockCensusCountsPerTaskClass) {
  auto policy = MakeLockCensusPolicy();
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  Status status = policy->spec.VerifyAll();
  ASSERT_TRUE(status.ok()) << status.ToString();

  Program& acquire =
      policy->spec.ChainFor(HookKind::kLockAcquire).programs.front();
  ProfileCtx ctx{1, 0, 0, 0};
  ThreadContext& self = Self();
  const std::uint8_t saved_class =
      self.task_class.load(std::memory_order_relaxed);

  self.task_class.store(static_cast<std::uint8_t>(TaskClass::kRealtime),
                        std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i) {
    BpfVm::Run(acquire, &ctx);
  }
  self.task_class.store(static_cast<std::uint8_t>(TaskClass::kBackground),
                        std::memory_order_relaxed);
  BpfVm::Run(acquire, &ctx);
  self.task_class.store(saved_class, std::memory_order_relaxed);

  EXPECT_EQ(policy->CountForClass(
                static_cast<std::uint64_t>(TaskClass::kRealtime)),
            3u);
  EXPECT_EQ(policy->CountForClass(
                static_cast<std::uint64_t>(TaskClass::kBackground)),
            1u);
  EXPECT_EQ(policy->CountForClass(
                static_cast<std::uint64_t>(TaskClass::kLatencyCritical)),
            0u);
  // Keys are inserted lazily, one per observed class.
  EXPECT_EQ(policy->census->Size(), 2u);
}

// Property sweep: every factory in policies.h (each rw_switch mode
// included) passes the admission gate Concord::Attach applies — it verifies
// under its hook's capability mask (no ready-made policy depends on
// capabilities its attach point would deny), lints and certifies. Each case
// prints as its factory's name, which gtest_discover_tests puts in the CTest
// name: a bare function pointer prints as its address, which ASLR changes on
// every run.
template <typename Policy>
StatusOr<PolicySpec> SpecOf(StatusOr<Policy> policy) {
  CONCORD_RETURN_IF_ERROR(policy.status());
  return std::move(policy->spec);
}

struct NamedFactory {
  const char* name;
  StatusOr<PolicySpec> (*make)();
};

void PrintTo(const NamedFactory& factory, std::ostream* os) {
  *os << factory.name;
}

class PolicyVerificationTest : public ::testing::TestWithParam<NamedFactory> {};

TEST_P(PolicyVerificationTest, FactoryPolicyVerifies) {
  StatusOr<PolicySpec> spec = GetParam().make();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  Status status = spec->VerifyAll();
  EXPECT_TRUE(status.ok()) << status.ToString();
  // Verified programs advertise their capability usage.
  for (int k = 0; k < kNumHookKinds; ++k) {
    for (const Program& program : spec->chains[k].programs) {
      EXPECT_TRUE(program.verified);
      EXPECT_EQ(program.used_capabilities &
                    ~CapabilitiesFor(static_cast<HookKind>(k)),
                0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFactories, PolicyVerificationTest,
    ::testing::Values(
        NamedFactory{"NumaGrouping",
                     [] { return SpecOf(MakeNumaGroupingPolicy()); }},
        NamedFactory{"PriorityBoost",
                     [] { return SpecOf(MakePriorityBoostPolicy()); }},
        NamedFactory{"LockInheritance",
                     [] { return SpecOf(MakeLockInheritancePolicy()); }},
        NamedFactory{"Scl", [] { return SpecOf(MakeSclPolicy()); }},
        NamedFactory{"AmpFastCore",
                     [] { return SpecOf(MakeAmpFastCorePolicy()); }},
        NamedFactory{"VcpuPreemption",
                     [] { return SpecOf(MakeVcpuPreemptionPolicy()); }},
        NamedFactory{"AdaptiveParking",
                     [] { return SpecOf(MakeAdaptiveParkingPolicy()); }},
        NamedFactory{"ShuffleFairnessGuard",
                     [] { return SpecOf(MakeShuffleFairnessGuard()); }},
        NamedFactory{"RwSwitchNeutral",
                     [] {
                       return SpecOf(MakeRwSwitchPolicy(RwMode::kNeutral));
                     }},
        NamedFactory{"RwSwitchReaderBias",
                     [] {
                       return SpecOf(MakeRwSwitchPolicy(RwMode::kReaderBias));
                     }},
        NamedFactory{"RwSwitchWriterOnly",
                     [] {
                       return SpecOf(MakeRwSwitchPolicy(RwMode::kWriterOnly));
                     }},
        NamedFactory{"BpfProfiler",
                     [] { return SpecOf(MakeBpfProfilerPolicy()); }},
        NamedFactory{"LockCensus",
                     [] { return SpecOf(MakeLockCensusPolicy()); }}));

}  // namespace
}  // namespace concord
