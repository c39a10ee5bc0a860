// A7: what does a policy invocation cost? (google-benchmark)
// Breaks the "Concord overhead" down into its parts: BPF execution per
// program (interpreted and JIT-compiled), hook-table dispatch, the
// end-to-end uncontended lock/unlock with nothing / native hooks /
// interpreted BPF hooks / JIT'd BPF hooks attached, the uncontended
// BravoLock read pair with nothing / a native rw_mode / a JIT'd rw_mode
// policy attached, cached or not, and read pairs on one BravoLock from 1-3
// threads at once.
//
// Every BM_Bpf* case has a BM_Jit* counterpart running the same program as
// native code; the ratio between the pair is the JIT speedup the ISSUE's
// acceptance criterion asks about (>= 3x for the NUMA cmp_node program).

#include <benchmark/benchmark.h>

#include "bench/gbench_json.h"

#include "src/bpf/jit/jit.h"
#include "src/bpf/vm.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/sync/bravo.h"
#include "src/sync/shfllock.h"
#include "src/topology/topology.h"

namespace concord {
namespace {

// Verifies a freshly built policy and returns it; the caller keeps it alive
// for as long as it references programs inside (programs hold raw pointers
// to the policy's maps).
TunablePolicy VerifiedPolicy(StatusOr<TunablePolicy> policy) {
  CONCORD_CHECK(policy.ok());
  CONCORD_CHECK(policy->spec.VerifyAll().ok());
  return std::move(policy.value());
}

std::shared_ptr<const JitProgram> CompileOrSkip(benchmark::State& state,
                                                const Program& program) {
  if (!Jit::Supported()) {
    state.SkipWithError("no JIT backend on this platform/build");
    return nullptr;
  }
  auto compiled = Jit::Compile(program);
  CONCORD_CHECK(compiled.ok());
  return std::move(compiled.value());
}

void BM_BpfRunNumaCmp(benchmark::State& state) {
  const TunablePolicy policy = VerifiedPolicy(MakeNumaGroupingPolicy());
  const Program& program = policy.spec.ChainFor(HookKind::kCmpNode).programs.front();
  CmpNodeCtx ctx{};
  ctx.shuffler.socket = 1;
  ctx.curr.socket = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BpfVm::Run(program, &ctx));
  }
  state.SetLabel(std::to_string(program.insns.size()) + " insns");
}
BENCHMARK(BM_BpfRunNumaCmp);

void BM_JitRunNumaCmp(benchmark::State& state) {
  const TunablePolicy policy = VerifiedPolicy(MakeNumaGroupingPolicy());
  const Program& program = policy.spec.ChainFor(HookKind::kCmpNode).programs.front();
  auto jit = CompileOrSkip(state, program);
  if (jit == nullptr) return;
  CmpNodeCtx ctx{};
  ctx.shuffler.socket = 1;
  ctx.curr.socket = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(jit->Run(program, &ctx));
  }
  state.SetLabel(std::to_string(program.insns.size()) + " insns, " +
                 std::to_string(jit->code_size()) + "B native");
}
BENCHMARK(BM_JitRunNumaCmp);

void BM_BpfRunMapLookupPolicy(benchmark::State& state) {
  // The priority-boost prologue does a map lookup.
  const TunablePolicy policy = VerifiedPolicy(MakePriorityBoostPolicy());
  const Program& program = policy.spec.ChainFor(HookKind::kCmpNode).programs.front();
  CmpNodeCtx ctx{};
  ctx.curr.priority = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BpfVm::Run(program, &ctx));
  }
  state.SetLabel(std::to_string(program.insns.size()) + " insns + map lookup");
}
BENCHMARK(BM_BpfRunMapLookupPolicy);

void BM_JitRunMapLookupPolicy(benchmark::State& state) {
  const TunablePolicy policy = VerifiedPolicy(MakePriorityBoostPolicy());
  const Program& program = policy.spec.ChainFor(HookKind::kCmpNode).programs.front();
  auto jit = CompileOrSkip(state, program);
  if (jit == nullptr) return;
  CmpNodeCtx ctx{};
  ctx.curr.priority = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(jit->Run(program, &ctx));
  }
  state.SetLabel(std::to_string(program.insns.size()) + " insns + map lookup");
}
BENCHMARK(BM_JitRunMapLookupPolicy);

void BM_UncontendedLock_NoHooks(benchmark::State& state) {
  ShflLock lock;
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
}
BENCHMARK(BM_UncontendedLock_NoHooks);

void BM_UncontendedLock_NativeHooks(benchmark::State& state) {
  ShflLock lock;
  HookTable hooks;
  hooks.cmp_node = [](void*, const ShflWaiterView& s, const ShflWaiterView& c) {
    return s.socket == c.socket;
  };
  lock.hook_site().Install(&hooks);
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
  lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();
}
BENCHMARK(BM_UncontendedLock_NativeHooks);

// Attach-time JIT mode decides which tier the installed hooks run on; pin it
// explicitly so the two lock/unlock benches measure what their names say
// regardless of CONCORD_JIT in the environment.
void UncontendedLockBpfPolicy(benchmark::State& state, bool jit) {
  ScopedJitMode mode(jit);
  if (jit && !Jit::Supported()) {
    state.SkipWithError("no JIT backend on this platform/build");
    return;
  }
  static ShflLock lock;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "a7_lock", "bench");
  auto policy = MakeNumaGroupingPolicy();
  CONCORD_CHECK(policy.ok());
  CONCORD_CHECK(concord.Attach(id, std::move(policy->spec)).ok());
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
  CONCORD_CHECK(concord.Unregister(id).ok());
}

void BM_UncontendedLock_BpfPolicy(benchmark::State& state) {
  UncontendedLockBpfPolicy(state, /*jit=*/false);
}
BENCHMARK(BM_UncontendedLock_BpfPolicy);

void BM_UncontendedLock_JitBpfPolicy(benchmark::State& state) {
  UncontendedLockBpfPolicy(state, /*jit=*/true);
}
BENCHMARK(BM_UncontendedLock_JitBpfPolicy);

// The read side: one uncontended BravoLock read pair with nothing, a raw
// rw_mode slot, or a JIT'd rw_mode policy installed. Every variant runs in
// neutral mode, so the pairs differ only in what the hooks cost.
void BM_UncontendedReadPair_NoHooks(benchmark::State& state) {
  BravoLock<NeutralRwLock> lock;
  for (auto _ : state) {
    lock.ReadLock();
    lock.ReadUnlock();
  }
}
BENCHMARK(BM_UncontendedReadPair_NoHooks);

void BM_UncontendedReadPair_NativeRwMode(benchmark::State& state) {
  BravoLock<NeutralRwLock> lock;
  HookTable hooks;
  hooks.rw_mode = [](void*) {
    return static_cast<std::uint32_t>(RwMode::kNeutral);
  };
  lock.hook_site().Install(&hooks);
  for (auto _ : state) {
    lock.ReadLock();
    lock.ReadUnlock();
  }
  lock.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();
}
BENCHMARK(BM_UncontendedReadPair_NativeRwMode);

void UncontendedReadPairJitPolicy(benchmark::State& state, PolicySpec spec) {
  ScopedJitMode mode(true);
  if (!Jit::Supported()) {
    state.SkipWithError("no JIT backend on this platform/build");
    return;
  }
  static BravoLock<NeutralRwLock> lock;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterRwLock(lock, "a7_rw_lock", "bench");
  CONCORD_CHECK(concord.Attach(id, std::move(spec)).ok());
  for (auto _ : state) {
    lock.ReadLock();
    lock.ReadUnlock();
  }
  CONCORD_CHECK(concord.Unregister(id).ok());
}

// rw_switch's lookup is map-pure, so the lock reuses its answer until the
// decision epoch moves: a read runs no program and enters no RCU section.
void BM_UncontendedReadPair_JitRwModePolicy(benchmark::State& state) {
  auto policy = MakeRwSwitchPolicy(RwMode::kNeutral);
  CONCORD_CHECK(policy.ok());
  UncontendedReadPairJitPolicy(state, std::move(policy->spec));
}
BENCHMARK(BM_UncontendedReadPair_JitRwModePolicy);

// The same program against a per-CPU array knob, which is not map-pure, so
// every read runs it: the cost of the uncached decision.
void BM_UncontendedReadPair_JitRwModeUncached(benchmark::State& state) {
  auto policy = MakeRwSwitchPolicy(RwMode::kNeutral);
  CONCORD_CHECK(policy.ok());
  auto knob = std::make_shared<PerCpuArrayMap>(
      "rw_mode", sizeof(std::uint64_t), 1,
      MachineTopology::Global().total_cpus());  // zeroed: neutral
  policy->spec.ChainFor(HookKind::kRwMode).programs.front().maps = {
      knob.get()};
  policy->spec.maps = {knob};
  UncontendedReadPairJitPolicy(state, std::move(policy->spec));
}
BENCHMARK(BM_UncontendedReadPair_JitRwModeUncached);

// Read pairs on one BravoLock from 1, 2 and 3 threads at once (never more),
// with no hooks. Each read counts in the line of its thread's
// visible-readers slot, so threads on different slots share no line under
// reader bias, and only the underlying lock's word in neutral mode.
// items_per_second is reads per second over all threads.
void ConcurrentReadPairs(benchmark::State& state, BravoLock<NeutralRwLock>& lock) {
  for (auto _ : state) {
    lock.ReadLock();
    lock.ReadUnlock();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ConcurrentReadPair_ReaderBias(benchmark::State& state) {
  static BravoLock<NeutralRwLock> lock;  // never write-locked: stays biased
  lock.SetDefaultMode(RwMode::kReaderBias);
  ConcurrentReadPairs(state, lock);
}
BENCHMARK(BM_ConcurrentReadPair_ReaderBias)
    ->Threads(1)->Threads(2)->Threads(3)->UseRealTime();

void BM_ConcurrentReadPair_Neutral(benchmark::State& state) {
  static BravoLock<NeutralRwLock> lock;
  ConcurrentReadPairs(state, lock);
}
BENCHMARK(BM_ConcurrentReadPair_Neutral)
    ->Threads(1)->Threads(2)->Threads(3)->UseRealTime();

void BM_RwModeDecision_Bpf(benchmark::State& state) {
  const TunablePolicy policy = VerifiedPolicy(MakeRwSwitchPolicy(RwMode::kReaderBias));
  const Program& program = policy.spec.ChainFor(HookKind::kRwMode).programs.front();
  RwModeCtx ctx{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(BpfVm::Run(program, &ctx));
  }
}
BENCHMARK(BM_RwModeDecision_Bpf);

void BM_RwModeDecision_Jit(benchmark::State& state) {
  const TunablePolicy policy = VerifiedPolicy(MakeRwSwitchPolicy(RwMode::kReaderBias));
  const Program& program = policy.spec.ChainFor(HookKind::kRwMode).programs.front();
  auto jit = CompileOrSkip(state, program);
  if (jit == nullptr) return;
  RwModeCtx ctx{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(jit->Run(program, &ctx));
  }
}
BENCHMARK(BM_RwModeDecision_Jit);

}  // namespace
}  // namespace concord

CONCORD_GBENCH_MAIN("a7_bpf_overhead");
