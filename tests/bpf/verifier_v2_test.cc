// Verifier v2 coverage: bounded loops, range/tnum refinement,
// variable-offset pointers, path-carrying diagnostics, and the analysis
// artifact consumed by the lint layer.

#include <gtest/gtest.h>

#include "src/bpf/builder.h"
#include "src/bpf/helpers.h"
#include "src/bpf/jit/jit.h"
#include "src/bpf/maps.h"
#include "src/bpf/verifier.h"
#include "src/bpf/vm.h"

namespace concord {
namespace {

struct VCtx {
  std::uint64_t in;
  std::uint32_t rw;
};

const ContextDescriptor& Desc() {
  static const ContextDescriptor desc(
      "vctx", sizeof(VCtx), {{"in", 0, 8, false}, {"rw", 8, 4, true}});
  return desc;
}

Status VerifyBuilt(ProgramBuilder& builder,
                   const Verifier::Options& options = Verifier::Options{},
                   Verifier::Analysis* analysis = nullptr) {
  auto result = builder.Build();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return Verifier::Verify(*result, options, analysis);
}

// ---------- bounded loops ---------------------------------------------------

TEST(VerifierV2Test, AcceptsCountedLoopAndRunsOnBothTiers) {
  // r0 = 0; for (r2 = 0; r2 < 10; ++r2) r0 += 2;  =>  r0 == 20.
  // Rejected outright by the v1 no-back-edge rule; verifier v2 proves the
  // counter folds the loop branch after 10 abstract iterations.
  ProgramBuilder b("counted", &Desc());
  auto loop = b.NewLabel();
  b.Mov(0, 0).Mov(2, 0).Bind(loop).Add(0, 2).Add(2, 1).JmpIf(kBpfJlt, 2, 10,
                                                             loop);
  b.Ret();
  auto program = b.Build();
  ASSERT_TRUE(program.ok());

  Verifier::Analysis analysis;
  ASSERT_TRUE(
      Verifier::Verify(*program, Verifier::Options{}, &analysis).ok());
  ASSERT_EQ(analysis.loops.size(), 1u);
  EXPECT_EQ(analysis.loops[0].max_trips, 9u);
  EXPECT_TRUE(analysis.has_exit);
  EXPECT_EQ(analysis.r0_exit.umin, 20u);
  EXPECT_EQ(analysis.r0_exit.umax, 20u);

  VCtx ctx{0, 0};
  EXPECT_EQ(BpfVm::Run(*program, &ctx), 20u);
  if (Jit::Supported()) {
    auto compiled = Jit::Compile(*program);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    VCtx jit_ctx{0, 0};
    EXPECT_EQ(compiled.value()->Run(*program, &jit_ctx), 20u);
  }
}

TEST(VerifierV2Test, AcceptsCountdownLoop) {
  ProgramBuilder b("countdown", &Desc());
  auto loop = b.NewLabel();
  b.Mov(0, 0).Mov(2, 8).Bind(loop).Add(0, 1).Sub(2, 1).JmpIf(kBpfJne, 2, 0,
                                                             loop);
  b.Ret();
  auto program = b.Build();
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(Verifier::Verify(*program).ok());
  VCtx ctx{0, 0};
  EXPECT_EQ(BpfVm::Run(*program, &ctx), 8u);
}

TEST(VerifierV2Test, Accepts32BitCountedLoop) {
  ProgramBuilder b("counted32", &Desc());
  auto loop = b.NewLabel();
  b.Mov(0, 0)
      .Emit(AluImm(kBpfMov, 2, 0, /*is64=*/false))
      .Bind(loop)
      .Add(0, 3)
      .Emit(AluImm(kBpfAdd, 2, 1, /*is64=*/false))
      .Emit(JmpImm(kBpfJlt, 2, 5, 0, /*is64=*/false));
  // Patch the JMP32 displacement back to the loop head by hand: the builder
  // label API targets 64-bit jumps only in this direction.
  auto program = b.Ret().Build();
  ASSERT_TRUE(program.ok());
  program->insns[4].off = -3;  // jlt32 -> loop body start (insn 2)
  ASSERT_TRUE(Verifier::Verify(*program).ok());
  VCtx ctx{0, 0};
  EXPECT_EQ(BpfVm::Run(*program, &ctx), 15u);
}

TEST(VerifierV2Test, AcceptsLoopWithRuntimeBoundBelowConstant) {
  // The trip count comes from the context but is clamped by the verifier's
  // branch refinement: r3 = ctx.in & 7 bounds the loop at 8 trips.
  ProgramBuilder b("runtime_bound", &Desc());
  auto loop = b.NewLabel();
  auto done = b.NewLabel();
  b.Load(kBpfSizeDw, 3, 1, 0)
      .And(3, 7)
      .Mov(0, 0)
      .Mov(2, 0)
      .JmpIfR(kBpfJge, 2, 3, done)
      .Bind(loop)
      .Add(0, 1)
      .Add(2, 1)
      .JmpIfR(kBpfJlt, 2, 3, loop)
      .Bind(done)
      .Ret();
  Verifier::Analysis analysis;
  ASSERT_TRUE(VerifyBuilt(b, Verifier::Options{}, &analysis).ok());
  ASSERT_EQ(analysis.loops.size(), 1u);
  EXPECT_LE(analysis.loops[0].max_trips, 8u);
}

TEST(VerifierV2Test, RejectsInfiniteLoopWithPath) {
  // No exit condition and no state change: the abstract state repeats at the
  // loop header.
  ProgramBuilder b("spin", &Desc());
  auto loop = b.NewLabel();
  b.Mov(0, 0).Bind(loop).Jmp(loop);
  Status s = VerifyBuilt(b);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(s.message().find("infinite loop"), std::string::npos);
  EXPECT_NE(s.message().find("path:"), std::string::npos);
}

TEST(VerifierV2Test, RejectsLoopExceedingTripBudget) {
  // A counter that does make progress, but toward a bound beyond the trip
  // budget: rejected with the back edge, the budget, and the path.
  ProgramBuilder b("slowloop", &Desc());
  auto loop = b.NewLabel();
  b.Mov(0, 0).Mov(2, 0).Bind(loop).Add(2, 1).JmpIf(kBpfJlt, 2, 100, loop);
  b.Ret();
  Verifier::Options opts;
  opts.max_loop_trips = 16;
  Status s = VerifyBuilt(b, opts);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("loop exceeded 16 iterations"), std::string::npos);
  EXPECT_NE(s.message().find("back edge to insn"), std::string::npos);
  EXPECT_NE(s.message().find("path:"), std::string::npos);
}

TEST(VerifierV2Test, StateBudgetMessageBlamesTheHotLoop) {
  // A loop whose body forks on an unknown bit every iteration; under a small
  // state budget the rejection must attribute the blowup to the loop header.
  ProgramBuilder b("hotloop", &Desc());
  auto loop = b.NewLabel();
  auto skip = b.NewLabel();
  b.Mov(2, 0)
      .Load(kBpfSizeDw, 3, 1, 0)
      .Bind(loop)
      .JmpIf(kBpfJset, 3, 1, skip)
      .Bind(skip)
      .Add(2, 1)
      .JmpIf(kBpfJlt, 2, 100, loop);
  b.Return(0);
  Verifier::Options opts;
  opts.max_states = 150;
  Status s = VerifyBuilt(b, opts);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("abstract states"), std::string::npos);
  EXPECT_NE(s.message().find("hottest loop header at insn"), std::string::npos);
}

// ---------- range and tnum refinement ---------------------------------------

TEST(VerifierV2Test, TracksReturnRangeThroughMasking) {
  ProgramBuilder b("masked", &Desc());
  b.Load(kBpfSizeDw, 2, 1, 0).And(2, 1).MovR(0, 2).Ret();
  Verifier::Analysis analysis;
  ASSERT_TRUE(VerifyBuilt(b, Verifier::Options{}, &analysis).ok());
  ASSERT_TRUE(analysis.has_exit);
  EXPECT_EQ(analysis.r0_exit.umin, 0u);
  EXPECT_EQ(analysis.r0_exit.umax, 1u);
}

TEST(VerifierV2Test, BranchRefinementUnionsExitRange) {
  // if (ctx.in > 100) return 7; else return 3;  =>  r0 in {3, 7}.
  ProgramBuilder b("branches", &Desc());
  auto big = b.NewLabel();
  b.Load(kBpfSizeDw, 2, 1, 0)
      .JmpIf(kBpfJgt, 2, 100, big)
      .Return(3)
      .Bind(big)
      .Return(7);
  Verifier::Analysis analysis;
  ASSERT_TRUE(VerifyBuilt(b, Verifier::Options{}, &analysis).ok());
  EXPECT_EQ(analysis.r0_exit.umin, 3u);
  EXPECT_EQ(analysis.r0_exit.umax, 7u);
}

TEST(VerifierV2Test, DeadArmFromRefinementIsNotExplored) {
  // After `r2 &= 3`, the branch `r2 > 7` is provably never taken; its arm
  // would otherwise trip on an uninitialized r0 at exit.
  ProgramBuilder b("deadarm", &Desc());
  auto dead = b.NewLabel();
  b.Load(kBpfSizeDw, 2, 1, 0)
      .And(2, 3)
      .JmpIf(kBpfJgt, 2, 7, dead)
      .Return(0)
      .Bind(dead)
      .Ret();  // exit with uninitialized r0 — must be unreachable
  EXPECT_TRUE(VerifyBuilt(b).ok());
}

// ---------- variable-offset pointers ----------------------------------------

TEST(VerifierV2Test, AcceptsVariableStackOffsetProvenInBounds) {
  // Eight initialized stack dwords, then an index derived from the context,
  // masked to 0..7 and scaled by 8: every access lands in [-64, 0).
  ProgramBuilder b("varstack", &Desc());
  for (int i = 1; i <= 8; ++i) {
    b.StoreImm(kBpfSizeDw, 10, static_cast<std::int16_t>(-8 * i), i);
  }
  b.Load(kBpfSizeDw, 2, 1, 0)
      .And(2, 7)
      .Alu(kBpfLsh, 2, 3)
      .MovR(3, 10)
      .Add(3, -64)
      .AddR(3, 2)
      .Load(kBpfSizeDw, 0, 3, 0)
      .Ret();
  auto program = b.Build();
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(Verifier::Verify(*program).ok());

  // ctx.in = 5 => slot index 5 counting up from -64, which holds value 3.
  VCtx ctx{5, 0};
  EXPECT_EQ(BpfVm::Run(*program, &ctx), 3u);
}

TEST(VerifierV2Test, RejectsVariableStackOffsetOutOfBounds) {
  // Mask 15 allows indices past the eight initialized slots.
  ProgramBuilder b("varstack_oob", &Desc());
  for (int i = 1; i <= 8; ++i) {
    b.StoreImm(kBpfSizeDw, 10, static_cast<std::int16_t>(-8 * i), i);
  }
  b.Load(kBpfSizeDw, 2, 1, 0)
      .And(2, 15)
      .Alu(kBpfLsh, 2, 3)
      .MovR(3, 10)
      .Add(3, -64)
      .AddR(3, 2)
      .Load(kBpfSizeDw, 0, 3, 0)
      .Ret();
  Status s = VerifyBuilt(b);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(s.message().find("stack access out of bounds"), std::string::npos);
}

TEST(VerifierV2Test, RejectsMisalignedVariableStackOffset) {
  // The variable part has unknown low bits: alignment cannot be proven.
  ProgramBuilder b("varstack_align", &Desc());
  b.StoreImm(kBpfSizeDw, 10, -8, 1)
      .Load(kBpfSizeDw, 2, 1, 0)
      .And(2, 7)
      .MovR(3, 10)
      .Add(3, -8)
      .AddR(3, 2)
      .Load(kBpfSizeDw, 0, 3, 0)
      .Ret();
  Status s = VerifyBuilt(b);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(s.message().find("misaligned stack access"), std::string::npos);
}

TEST(VerifierV2Test, RejectsUnboundedVariableStackOffset) {
  ProgramBuilder b("varstack_unbounded", &Desc());
  b.StoreImm(kBpfSizeDw, 10, -8, 1)
      .Load(kBpfSizeDw, 2, 1, 0)  // unknown, unbounded
      .MovR(3, 10)
      .AddR(3, 2)
      .Load(kBpfSizeDw, 0, 3, 0)
      .Ret();
  Status s = VerifyBuilt(b);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(s.message().find("variable offset"), std::string::npos);
}

TEST(VerifierV2Test, AcceptsVariableMapValueOffset) {
  ProgramBuilder b("varmapval", &Desc());
  ArrayMap map("m", 64, 1);  // one 64-byte value: eight dword lanes
  const auto idx = b.DeclareMap(&map);
  auto miss = b.NewLabel();
  b.StoreImm(kBpfSizeW, 10, -4, 0)
      .Mov(1, static_cast<std::int32_t>(idx))
      .MovR(2, 10)
      .Add(2, -4)
      .CallByName("map_lookup_elem")
      .JmpIf(kBpfJeq, 0, 0, miss)
      .Load(kBpfSizeDw, 3, 0, 0)  // lane selector from map value itself
      .And(3, 7)
      .Alu(kBpfLsh, 3, 3)
      .AddR(0, 3)
      .Load(kBpfSizeDw, 0, 0, 0)
      .Ret()
      .Bind(miss)
      .Return(0);
  EXPECT_TRUE(VerifyBuilt(b).ok());
}

TEST(VerifierV2Test, RejectsVariableMapValueOffsetBeyondValueSize) {
  ProgramBuilder b("varmapval_oob", &Desc());
  ArrayMap map("m", 64, 1);
  const auto idx = b.DeclareMap(&map);
  auto miss = b.NewLabel();
  b.StoreImm(kBpfSizeW, 10, -4, 0)
      .Mov(1, static_cast<std::int32_t>(idx))
      .MovR(2, 10)
      .Add(2, -4)
      .CallByName("map_lookup_elem")
      .JmpIf(kBpfJeq, 0, 0, miss)
      .Load(kBpfSizeDw, 3, 0, 0)
      .And(3, 15)  // lanes 8..15 are beyond the 64-byte value
      .Alu(kBpfLsh, 3, 3)
      .AddR(0, 3)
      .Load(kBpfSizeDw, 0, 0, 0)
      .Ret()
      .Bind(miss)
      .Return(0);
  Status s = VerifyBuilt(b);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(s.message().find("map value access out of bounds"),
            std::string::npos);
}

TEST(VerifierV2Test, ContextOffsetsMustStayConstant) {
  ProgramBuilder b("ctxvar", &Desc());
  b.Load(kBpfSizeDw, 2, 1, 0)
      .And(2, 7)
      .MovR(3, 1)
      .AddR(3, 2)
      .Load(kBpfSizeW, 0, 3, 8)
      .Ret();
  Status s = VerifyBuilt(b);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(s.message().find("compile-time constant"), std::string::npos);
}

// ---------- path-carrying diagnostics (regression: satellite #1) ------------

TEST(VerifierV2Test, RejectionMessageCarriesBranchHistory) {
  // Taken arm of the branch at insn 1 jumps straight to the bad exit at
  // insn 5; the fall-through arm is fine. The rejection must name the taken
  // path, not just the instruction.
  Program p;
  p.name = "pathy";
  p.ctx_desc = &Desc();
  p.insns = {
      LoadMem(kBpfSizeDw, 2, 1, 0),  // 0
      JmpImm(kBpfJeq, 2, 5, 3),      // 1: if (r2 == 5) goto 5
      MovImm(0, 0),                  // 2
      Exit(),                        // 3
      MovImm(0, 0),                  // 4 (unreachable)
      Exit(),                        // 5: r0 uninitialized here
  };
  Status s = Verifier::Verify(p);
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(s.message().find("exit with uninitialized r0"), std::string::npos);
  EXPECT_NE(s.message().find("path: 0 -> 5"), std::string::npos);
}

// ---------- analysis artifact ------------------------------------------------

TEST(VerifierV2Test, AnalysisReportsCtxPointerHeldAcrossCall) {
  ProgramBuilder b("ctx_across_call", &Desc());
  b.MovR(6, 1)  // stash the ctx pointer in a callee-saved register
      .CallByName("ktime_get_ns")
      .Load(kBpfSizeDw, 0, 6, 0)
      .Ret();
  Verifier::Analysis analysis;
  ASSERT_TRUE(VerifyBuilt(b, Verifier::Options{}, &analysis).ok());
  ASSERT_EQ(analysis.ctx_ptr_across_call_pcs.size(), 1u);
  EXPECT_EQ(analysis.ctx_ptr_across_call_pcs[0], 1u);
}

TEST(VerifierV2Test, AnalysisReportsMapWrites) {
  ProgramBuilder b("mapwrite", &Desc());
  ArrayMap map("m", 8, 1);
  const auto idx = b.DeclareMap(&map);
  b.StoreImm(kBpfSizeW, 10, -4, 0)
      .StoreImm(kBpfSizeDw, 10, -16, 1)
      .Mov(1, static_cast<std::int32_t>(idx))
      .MovR(2, 10)
      .Add(2, -4)
      .MovR(3, 10)
      .Add(3, -16)
      .CallByName("map_update_elem")
      .Return(0);
  auto program = b.Build();
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Verifier::Analysis analysis;
  ASSERT_TRUE(Verifier::Verify(*program, Verifier::Options{}, &analysis).ok());
  EXPECT_TRUE(program->writes_map);
  EXPECT_FALSE(analysis.writes_ctx);
}

}  // namespace
}  // namespace concord
