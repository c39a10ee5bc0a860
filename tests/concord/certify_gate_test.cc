// Attach-gate coverage: PolicySpec::VerifyAll rejects over-budget and racy
// programs with path-carrying diagnostics, and the runtime budget machinery
// honors what certification promised — a program certified at N ns can never
// trip a 2N budget, and a backwards clock step cannot fake an overrun.

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/base/time.h"
#include "src/bpf/analysis/certify.h"
#include "src/bpf/builder.h"
#include "src/bpf/helpers.h"
#include "src/bpf/maps.h"
#include "src/bpf/verifier.h"
#include "src/concord/hooks.h"
#include "src/concord/policy.h"

namespace concord {
namespace {

constexpr HookKind kHook = HookKind::kLockAcquire;

// ~1000-trip ALU loop against the profiling-hook context; verifier v2 proves
// the bound, lint has no loop rule for profiling hooks, so only the WCET
// gate can reject it.
Program HotLoopProgram() {
  ProgramBuilder b("hot_loop", &DescriptorFor(kHook));
  auto loop = b.NewLabel();
  b.Mov(0, 0).Mov(2, 0).Bind(loop).Add(0, 2).Add(2, 1).JmpIf(kBpfJlt, 2, 1000,
                                                             loop);
  b.Ret();
  auto program = b.Build();
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(*program);
}

// load/add/store counter bump through a map-value pointer into `map`.
Program RmwCounterProgram(BpfMap* map) {
  ProgramBuilder b("count_acquires", &DescriptorFor(kHook));
  const std::uint32_t idx = b.DeclareMap(map);
  auto out = b.NewLabel();
  b.StoreImm(kBpfSizeW, 10, -4, 0);
  b.Mov(1, static_cast<std::int32_t>(idx));
  b.MovR(2, 10).Add(2, -4);
  b.CallHelper(kHelperMapLookupElem);
  b.JmpIf(kBpfJeq, 0, 0, out);
  b.Load(kBpfSizeDw, 2, 0, 0).Add(2, 1).Store(kBpfSizeDw, 0, 0, 2);
  b.Bind(out).Return(0);
  auto program = b.Build();
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(*program);
}

TEST(CertifyGateTest, OverBudgetProgramRejectedAtVerifyAll) {
  PolicySpec spec;
  spec.name = "overbudget";
  spec.hook_budget_ns = 100;
  ASSERT_TRUE(spec.AddProgram(kHook, HotLoopProgram()).ok());

  Status status = spec.VerifyAll();
  ASSERT_EQ(status.code(), StatusCode::kPermissionDenied) << status.ToString();
  // The diagnostic carries the full path: policy, hook, program, and the
  // dominant loop.
  EXPECT_NE(status.message().find("policy 'overbudget'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("lock_acquire"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("'hot_loop'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("exceeds hook budget"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("loop: header"), std::string::npos)
      << status.message();
}

TEST(CertifyGateTest, SameProgramCertifiesUnderRoomyBudget) {
  PolicySpec spec;
  spec.name = "roomy";
  spec.hook_budget_ns = 10'000'000;  // 10 ms: far above the loop's bound
  ASSERT_TRUE(spec.AddProgram(kHook, HotLoopProgram()).ok());
  Status status = spec.VerifyAll();
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(CertifyGateTest, RacyProgramRejectedEvenWithoutBudget) {
  auto counter = std::make_shared<ArrayMap>("acquires", 8, 1);
  PolicySpec spec;
  spec.name = "racy";
  spec.maps.push_back(counter);
  ASSERT_TRUE(spec.AddProgram(kHook, RmwCounterProgram(counter.get())).ok());

  Status status = spec.VerifyAll();
  ASSERT_EQ(status.code(), StatusCode::kPermissionDenied) << status.ToString();
  EXPECT_NE(status.message().find("'acquires'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("shared"), std::string::npos)
      << status.message();
  // The fix-it hint names the migration target.
  EXPECT_NE(status.message().find("percpu_array"), std::string::npos)
      << status.message();
}

TEST(CertifyGateTest, PerCpuMigrationUnblocksTheSamePolicy) {
  // Applying the analyzer's own hint makes the spec attachable.
  auto counter = std::make_shared<PerCpuArrayMap>("acquires", 8, 1,
                                                  /*num_cpus=*/4);
  PolicySpec spec;
  spec.name = "percpu";
  spec.maps.push_back(counter);
  ASSERT_TRUE(spec.AddProgram(kHook, RmwCounterProgram(counter.get())).ok());
  Status status = spec.VerifyAll();
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// --- runtime budget vs certified bound ---------------------------------------

TEST(CertifyGateTest, CertifiedBoundNeverTripsDoubleBudget) {
  // Certify the loop program, then replay many dispatches each taking
  // exactly the certified worst case against a budget of twice that bound.
  // AccountDispatch overruns only on elapsed > budget, so a sound bound can
  // never trip — this is the contract that makes "budget_ns: 2 * certified"
  // a safe deployment rule.
  Program program = HotLoopProgram();
  Verifier::Analysis analysis;
  ASSERT_TRUE(Verifier::Verify(program, Verifier::Options{}, &analysis).ok());
  CertificationReport cert;
  ASSERT_TRUE(CertifyProgram(program, analysis, 0, &cert).ok());
  const std::uint64_t certified = cert.wcet.certified_ns;
  ASSERT_GT(certified, 0u);

  ScopedFakeClock fake;
  HookBudgetState budget;
  budget.budget_ns = 2 * certified;
  budget.trip_overruns = 2;
  bool tripped = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t start = ClockNowNs();
    fake.clock().AdvanceNs(certified);  // dispatch runs the full worst case
    tripped |= budget.AccountDispatch(kHook, ElapsedSinceNs(start), nullptr);
  }
  EXPECT_EQ(budget.overruns.load(), 0u);
  EXPECT_FALSE(tripped);
  EXPECT_EQ(budget.TotalCalls(), 64u);
  EXPECT_EQ(budget.max_ns.load(), certified);

  // Sanity: the same replay against a budget *below* the certified bound
  // does trip, so the assertion above is not vacuous.
  HookBudgetState tight;
  tight.budget_ns = certified - 1;
  tight.trip_overruns = 2;
  bool tight_tripped = false;
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t start = ClockNowNs();
    fake.clock().AdvanceNs(certified);
    tight_tripped = tight.AccountDispatch(kHook, ElapsedSinceNs(start), nullptr);
  }
  EXPECT_EQ(tight.overruns.load(), 2u);
  EXPECT_TRUE(tight_tripped);
}

TEST(CertifyGateTest, BackwardsClockStepCannotFakeAnOverrun) {
  ScopedFakeClock fake(/*start_ns=*/1'000);
  const std::uint64_t start = ClockNowNs();
  // Step the clock backwards (unsigned wrap); unclamped now - start would be
  // ~2^64 ns and trip any budget on the spot.
  fake.clock().AdvanceNs(static_cast<std::uint64_t>(-500));
  EXPECT_EQ(ElapsedSinceNs(start), 0u);

  HookBudgetState budget;
  budget.budget_ns = 100;
  budget.trip_overruns = 1;
  EXPECT_FALSE(budget.AccountDispatch(kHook, ElapsedSinceNs(start), nullptr));
  EXPECT_EQ(budget.overruns.load(), 0u);
}

}  // namespace
}  // namespace concord
