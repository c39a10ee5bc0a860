// Deterministic edge-case tests for the x86-64 policy-program JIT.
//
// Each case builds a small verified program, runs it through both execution
// tiers — BpfVm::Run (the reference semantics) and Jit::Compile'd native
// code — on identical inputs, and requires identical R0 and identical memory
// side effects. The cases target exactly the spots where x86-64 and BPF
// semantics diverge and the backend must paper over the difference: 32-bit
// zero-extension (especially zero-count shifts), div/mod by zero, CL-based
// shift counts aliasing rcx, sign-extended immediates, and sub-word stores
// of rdi/rsi-mapped registers. Random coverage lives in
// jit_differential_test.cc.

#include "src/bpf/jit/jit.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/bpf/maps.h"
#include "src/bpf/verifier.h"
#include "src/bpf/vm.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

struct TestCtx {
  std::uint64_t a;
  std::uint64_t b;
  std::uint32_t c;
  std::uint32_t out;  // only writable field
};

const ContextDescriptor& TestDesc() {
  static const ContextDescriptor desc("jit_test_ctx", sizeof(TestCtx),
                                      {{"a", 0, 8, false},
                                       {"b", 8, 8, false},
                                       {"c", 16, 4, false},
                                       {"out", 20, 4, true}});
  return desc;
}

Program MakeVerified(std::vector<Insn> insns,
                     std::vector<BpfMap*> maps = {}) {
  Program program;
  program.name = "jit_case";
  program.ctx_desc = &TestDesc();
  program.insns = std::move(insns);
  program.maps = std::move(maps);
  const Status status = Verifier::Verify(program);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return program;
}

// Runs `program` through interpreter and JIT on identical context copies and
// checks R0 and the context bytes agree. Returns the (shared) R0.
std::uint64_t RunBoth(const Program& program, TestCtx ctx = TestCtx{}) {
  TestCtx interp_ctx = ctx;
  TestCtx jit_ctx = ctx;
  const std::uint64_t interp = BpfVm::Run(program, &interp_ctx);

  auto compiled = Jit::Compile(program);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) {
    return interp;
  }
  const std::uint64_t native = compiled.value()->Run(program, &jit_ctx);
  EXPECT_EQ(interp, native) << "program: " << program.name;
  EXPECT_EQ(std::memcmp(&interp_ctx, &jit_ctx, sizeof(TestCtx)), 0)
      << "context side effects diverge";
  return interp;
}

// Operand values straddling every width/sign boundary the templates care
// about.
constexpr std::uint64_t kEdgeValues[] = {
    0,
    1,
    2,
    0x7f,
    0x80000000ull,
    0xffffffffull,
    0x100000000ull,
    0x7fffffffffffffffull,
    0x8000000000000000ull,
    0xffffffffffffffffull,
};

constexpr std::uint8_t kBinaryAluOps[] = {
    kBpfAdd, kBpfSub, kBpfMul, kBpfDiv, kBpfOr,  kBpfAnd,
    kBpfLsh, kBpfRsh, kBpfMod, kBpfXor, kBpfMov, kBpfArsh,
};

TEST(JitTest, SupportedOnThisPlatform) {
  // The rest of the suite skips when unsupported; this documents that the
  // x86-64 CI legs really exercise the backend.
#if defined(__x86_64__)
  EXPECT_TRUE(Jit::Supported());
#else
  EXPECT_FALSE(Jit::Supported());
#endif
}

TEST(JitTest, AluRegisterFormsMatchInterpreter) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  // Operands come from the context so the verifier cannot constant-fold
  // them (it rejects provably-zero divisors; we want the runtime path).
  for (std::uint8_t op : kBinaryAluOps) {
    for (bool is64 : {true, false}) {
      const Program program = MakeVerified({
          LoadMem(kBpfSizeDw, 2, 1, 0),  // r2 = ctx.a
          LoadMem(kBpfSizeDw, 3, 1, 8),  // r3 = ctx.b
          AluReg(op, 2, 3, is64),
          MovReg(0, 2),
          Exit(),
      });
      for (std::uint64_t a : kEdgeValues) {
        for (std::uint64_t b : kEdgeValues) {
          TestCtx ctx{};
          ctx.a = a;
          ctx.b = b;
          RunBoth(program, ctx);
        }
      }
    }
  }
}

TEST(JitTest, AluImmediateFormsMatchInterpreter) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  constexpr std::int32_t kImms[] = {-2147483647 - 1, -1,        1,
                                    0x7fffffff,      0,         1000,
                                    -7,              0x40000000};
  for (std::uint8_t op : kBinaryAluOps) {
    for (bool is64 : {true, false}) {
      for (std::int32_t imm : kImms) {
        if ((op == kBpfDiv || op == kBpfMod) && imm == 0) {
          continue;  // constant-zero divisor is a verifier error
        }
        std::int32_t used = imm;
        if (op == kBpfLsh || op == kBpfRsh || op == kBpfArsh) {
          used = imm & (is64 ? 63 : 31);  // out-of-range shift imm rejected
        }
        const Program program = MakeVerified({
            LoadMem(kBpfSizeDw, 2, 1, 0),
            AluImm(op, 2, used, is64),
            MovReg(0, 2),
            Exit(),
        });
        for (std::uint64_t a : kEdgeValues) {
          TestCtx ctx{};
          ctx.a = a;
          RunBoth(program, ctx);
        }
      }
    }
  }
}

TEST(JitTest, NegMatchesInterpreter) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  for (bool is64 : {true, false}) {
    const Program program = MakeVerified({
        LoadMem(kBpfSizeDw, 2, 1, 0),
        AluImm(kBpfNeg, 2, 0, is64),
        MovReg(0, 2),
        Exit(),
    });
    for (std::uint64_t a : kEdgeValues) {
      TestCtx ctx{};
      ctx.a = a;
      RunBoth(program, ctx);
    }
  }
}

TEST(JitTest, ShiftByRegisterCoversRcxAliasing) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  // BPF r4 maps to rcx, the mandatory x86 shift-count register; exercise
  // every aliasing shape: src==r4, dst==r4, dst==src==r4, neither.
  struct Shape {
    std::uint8_t dst, src;
  };
  constexpr Shape kShapes[] = {{2, 4}, {4, 2}, {4, 4}, {2, 3}};
  constexpr std::uint64_t kCounts[] = {0, 1, 31, 32, 63, 64, 65, 255};
  for (std::uint8_t op : {kBpfLsh, kBpfRsh, kBpfArsh}) {
    for (bool is64 : {true, false}) {
      for (const Shape& shape : kShapes) {
        const Program program = MakeVerified({
            LoadMem(kBpfSizeDw, shape.dst, 1, 0),  // value = ctx.a
            LoadMem(kBpfSizeDw, shape.src, 1, 8),  // count = ctx.b
            AluReg(op, shape.dst, shape.src, is64),
            MovReg(0, shape.dst),
            Exit(),
        });
        for (std::uint64_t count : kCounts) {
          TestCtx ctx{};
          ctx.a = 0xdeadbeefcafebabeull;
          ctx.b = count;
          RunBoth(program, ctx);
        }
      }
    }
  }
}

TEST(JitTest, ZeroCountShift32StillZeroExtends) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  // x86 skips the register write when the masked count is 0; BPF still
  // requires dst = (u32)dst. ctx.b = 32 masks to count 0 at 32-bit width.
  const Program program = MakeVerified({
      LoadMem(kBpfSizeDw, 2, 1, 0),
      LoadMem(kBpfSizeDw, 3, 1, 8),
      AluReg(kBpfLsh, 2, 3, /*is64=*/false),
      MovReg(0, 2),
      Exit(),
  });
  TestCtx ctx{};
  ctx.a = 0xffffffff00000005ull;
  ctx.b = 32;
  EXPECT_EQ(RunBoth(program, ctx), 5u);
}

TEST(JitTest, DivModByZeroAtRuntime) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  // div by 0 -> 0; mod by 0 -> dst (32-bit view for ALU32). The 64-bit
  // cases are covered by the ALU matrix; pin the 32-bit mod upper-bits rule.
  const Program program = MakeVerified({
      LoadMem(kBpfSizeDw, 2, 1, 0),
      LoadMem(kBpfSizeDw, 3, 1, 8),
      AluReg(kBpfMod, 2, 3, /*is64=*/false),
      MovReg(0, 2),
      Exit(),
  });
  TestCtx ctx{};
  ctx.a = 0xdeadbeef00000005ull;
  ctx.b = 0;
  EXPECT_EQ(RunBoth(program, ctx), 5u);  // upper 32 bits cleared
}

TEST(JitTest, JumpConditionsMatchInterpreter) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  constexpr std::uint8_t kJmpOps[] = {kBpfJeq,  kBpfJgt,  kBpfJge, kBpfJset,
                                      kBpfJne,  kBpfJsgt, kBpfJsge, kBpfJlt,
                                      kBpfJle,  kBpfJslt, kBpfJsle};
  for (std::uint8_t op : kJmpOps) {
    for (bool is64 : {true, false}) {
      const Program program = MakeVerified({
          LoadMem(kBpfSizeDw, 2, 1, 0),
          LoadMem(kBpfSizeDw, 3, 1, 8),
          JmpReg(op, 2, 3, 2, is64),  // taken -> r0 = 1
          MovImm(0, 0),
          Exit(),
          MovImm(0, 1),
          Exit(),
      });
      for (std::uint64_t a : kEdgeValues) {
        for (std::uint64_t b : kEdgeValues) {
          TestCtx ctx{};
          ctx.a = a;
          ctx.b = b;
          RunBoth(program, ctx);
        }
      }
    }
  }
}

TEST(JitTest, JumpImmediateFormsSignExtend) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  constexpr std::uint8_t kJmpOps[] = {kBpfJeq,  kBpfJgt,  kBpfJge, kBpfJset,
                                      kBpfJne,  kBpfJsgt, kBpfJsge, kBpfJlt,
                                      kBpfJle,  kBpfJslt, kBpfJsle};
  constexpr std::int32_t kImms[] = {-2147483647 - 1, -1, 0, 1, 0x7fffffff};
  for (std::uint8_t op : kJmpOps) {
    for (bool is64 : {true, false}) {
      for (std::int32_t imm : kImms) {
        const Program program = MakeVerified({
            LoadMem(kBpfSizeDw, 2, 1, 0),
            JmpImm(op, 2, imm, 2, is64),
            MovImm(0, 0),
            Exit(),
            MovImm(0, 1),
            Exit(),
        });
        for (std::uint64_t a : kEdgeValues) {
          TestCtx ctx{};
          ctx.a = a;
          RunBoth(program, ctx);
        }
      }
    }
  }
}

TEST(JitTest, LoadStoreEveryWidth) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  // Register stores of r2 (maps to rsi — the byte form needs the forced REX
  // prefix) bounced through the stack, reloaded zero-extended.
  for (std::uint8_t size : {kBpfSizeB, kBpfSizeH, kBpfSizeW, kBpfSizeDw}) {
    const Program program = MakeVerified({
        LoadMem(kBpfSizeDw, 2, 1, 0),
        StoreMemReg(size, 10, 2, -8),
        LoadMem(size, 0, 10, -8),
        Exit(),
    });
    TestCtx ctx{};
    ctx.a = 0xf1f2f3f4f5f6f7f8ull;
    RunBoth(program, ctx);
  }
}

TEST(JitTest, StoreImmediateEveryWidth) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  // Negative immediate: the dw form must store it sign-extended.
  for (std::uint8_t size : {kBpfSizeB, kBpfSizeH, kBpfSizeW, kBpfSizeDw}) {
    for (std::int32_t imm : {-2, 0x7654321, -2147483647 - 1}) {
      const Program program = MakeVerified({
          StoreMemImm(size, 10, -8, imm),
          LoadMem(size, 0, 10, -8),
          Exit(),
      });
      RunBoth(program);
    }
  }
}

TEST(JitTest, ContextWritesMatch) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  // Write the writable ctx field; RunBoth compares the full context bytes.
  const Program program = MakeVerified({
      LoadMem(kBpfSizeW, 2, 1, 16),       // r2 = ctx.c
      AluImm(kBpfAdd, 2, 13),
      StoreMemReg(kBpfSizeW, 1, 2, 20),   // ctx.out = r2
      MovImm(0, 0),
      Exit(),
  });
  TestCtx ctx{};
  ctx.c = 1000;
  RunBoth(program, ctx);
}

TEST(JitTest, AtomicAddMatches) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  for (bool dw : {true, false}) {
    const std::uint8_t size = dw ? kBpfSizeDw : kBpfSizeW;
    const Program program = MakeVerified({
        StoreMemImm(kBpfSizeDw, 10, -8, 1000),
        LoadMem(kBpfSizeDw, 2, 1, 0),
        AtomicAdd(size, 10, 2, -8),
        LoadMem(kBpfSizeDw, 0, 10, -8),
        Exit(),
    });
    const std::uint64_t addends[] = {7, 0xffffffffffffffffull,
                                     0x100000001ull};
    for (std::uint64_t a : addends) {
      TestCtx ctx{};
      ctx.a = a;
      RunBoth(program, ctx);
    }
  }
}

TEST(JitTest, LoadImm64Constants) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  // Cover all three encodings MovImm64 picks: u32, sign-extended s32, full.
  const std::uint64_t values[] = {0,
                                  0x7fffffff,
                                  0xffffffffull,
                                  0xffffffff80000000ull,
                                  0x100000000ull,
                                  0xdeadbeefcafebabeull,
                                  0xffffffffffffffffull};
  for (std::uint64_t value : values) {
    const Program program = MakeVerified({
        LoadImm64First(0, value),
        LoadImm64Second(value),
        Exit(),
    });
    EXPECT_EQ(RunBoth(program), value);
  }
}

TEST(JitTest, HelperCallsMatch) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  // Deterministic helpers reading the calling thread's context; both tiers
  // run on this thread, so results must agree. Two calls back-to-back also
  // exercise r6 (callee-saved rbx) surviving the native call.
  const Program program = MakeVerified({
      Call(kHelperGetSmpProcessorId),
      MovReg(6, 0),
      Call(kHelperGetNumaNodeId),
      AluReg(kBpfLsh, 0, 0, true),  // harmless: r0 <<= r0 & 63
      AluReg(kBpfAdd, 0, 6),
      Exit(),
  });
  RunBoth(program);
}

TEST(JitTest, MapLookupAndWriteThroughValuePointer) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  // Identical programs against two identically-initialized maps: interp
  // mutates map A, JIT mutates map B; r0 and the map contents must agree.
  // (Compiled code reaches maps through VmEnv -> program -> maps, so the
  // same native code serves both program copies.)
  ArrayMap map_interp("m_interp", 8, 4);
  ArrayMap map_jit("m_jit", 8, 4);
  const std::uint64_t initial = 100;
  ASSERT_TRUE(map_interp.UpdateTyped(std::uint32_t{0}, initial).ok());
  ASSERT_TRUE(map_jit.UpdateTyped(std::uint32_t{0}, initial).ok());

  Program interp_prog = MakeVerified(
      {
          StoreMemImm(kBpfSizeW, 10, -4, 0),  // key = 0
          MovImm(1, 0),                       // map index
          MovReg(2, 10),
          AluImm(kBpfAdd, 2, -4),             // key ptr
          Call(kHelperMapLookupElem),
          JmpImm(kBpfJne, 0, 0, 2),
          MovImm(0, 0),
          Exit(),
          LoadMem(kBpfSizeDw, 3, 0, 0),       // r3 = *value
          AluImm(kBpfAdd, 3, 7),
          StoreMemReg(kBpfSizeDw, 0, 3, 0),   // *value += 7
          MovReg(0, 3),
          Exit(),
      },
      {&map_interp});
  ASSERT_TRUE(interp_prog.verified);

  Program jit_prog = interp_prog;  // same bytecode, other map
  jit_prog.maps = {&map_jit};

  auto compiled = Jit::Compile(jit_prog);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  TestCtx ctx{};
  const std::uint64_t interp = BpfVm::Run(interp_prog, &ctx);
  const std::uint64_t native = compiled.value()->Run(jit_prog, &ctx);
  EXPECT_EQ(interp, native);
  EXPECT_EQ(interp, initial + 7);

  std::uint64_t via_interp = 0;
  std::uint64_t via_jit = 0;
  ASSERT_TRUE(map_interp.LookupTyped(std::uint32_t{0}, &via_interp));
  ASSERT_TRUE(map_jit.LookupTyped(std::uint32_t{0}, &via_jit));
  EXPECT_EQ(via_interp, via_jit);
  EXPECT_EQ(via_jit, initial + 7);
}

TEST(JitTest, CodeCachePublishesSealedCode) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  const auto before = jit::CodeCache::Global().stats();
  const Program program = MakeVerified({MovImm(0, 3), Exit()});
  auto compiled = Jit::Compile(program);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const auto after = jit::CodeCache::Global().stats();
  EXPECT_EQ(after.programs_published, before.programs_published + 1);
  EXPECT_GT(after.code_bytes, before.code_bytes);
  EXPECT_GE(after.mapped_bytes - before.mapped_bytes,
            after.code_bytes - before.code_bytes);
  EXPECT_GT(compiled.value()->code_size(), 0u);
  EXPECT_FALSE(compiled.value()->HexDump().empty());
  EXPECT_EQ(compiled.value()->Run(program, nullptr), 3u);
}

TEST(JitTest, EnabledOverrideAndScopedMode) {
  const bool env_default = Jit::Enabled();
  {
    ScopedJitMode off(false);
    EXPECT_FALSE(Jit::Enabled());
    {
      ScopedJitMode on(true);
      EXPECT_EQ(Jit::Enabled(), Jit::Supported());
    }
    EXPECT_FALSE(Jit::Enabled());
  }
  EXPECT_EQ(Jit::Enabled(), env_default);
}

TEST(JitTest, JitCompileAllHonorsEnabledAndFallsBackCleanly) {
  auto policy = MakeNumaGroupingPolicy();
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  PolicySpec& spec = policy.value().spec;
  ASSERT_TRUE(spec.VerifyAll().ok());

  {
    ScopedJitMode off(false);
    spec.JitCompileAll();
    for (const Program& p :
         spec.ChainFor(HookKind::kCmpNode).programs) {
      EXPECT_EQ(p.jit, nullptr);
    }
  }
  {
    ScopedJitMode on(true);
    spec.JitCompileAll();
    for (const Program& p :
         spec.ChainFor(HookKind::kCmpNode).programs) {
      if (Jit::Supported()) {
        EXPECT_NE(p.jit, nullptr);
      } else {
        EXPECT_EQ(p.jit, nullptr);  // silent interpreter fallback
      }
    }
  }
}

TEST(JitTest, RunPolicyProgramDispatchesByHandle) {
  const Program interp_only = MakeVerified({MovImm(0, 11), Exit()});
  EXPECT_EQ(RunPolicyProgram(interp_only, nullptr), 11u);

  if (!Jit::Supported()) {
    return;
  }
  Program jitted = MakeVerified({MovImm(0, 22), Exit()});
  auto compiled = Jit::Compile(jitted);
  ASSERT_TRUE(compiled.ok());
  jitted.jit = std::move(compiled.value());
  EXPECT_EQ(RunPolicyProgram(jitted, nullptr), 22u);
}

// End-to-end: attach a real policy with the JIT forced on and hammer the
// lock from a few threads; decisions run through the native tier.
TEST(JitTest, AttachedPolicyRunsNativeEndToEnd) {
  if (!Jit::Supported()) GTEST_SKIP() << "no JIT backend";
  ScopedJitMode on(true);

  static ShflLock lock;  // outlives unregistration below
  Concord& concord = Concord::Global();
  const std::uint64_t id =
      concord.RegisterShflLock(lock, "jit_e2e_lock", "jit_test");

  auto policy = MakeNumaGroupingPolicy();
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(policy.value().spec)).ok());

  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 500; ++i) {
        lock.Lock();
        ++counter;
        lock.Unlock();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, 4u * 500u);
  EXPECT_TRUE(concord.Unregister(id).ok());
}

}  // namespace
}  // namespace concord
