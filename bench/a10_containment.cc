// A10: hook runtime-budget accounting cost (google-benchmark). The
// containment layer (docs/SAFETY.md) times every policy invocation against
// its budget; this quantifies what that accounting adds to the dispatch
// path:
//   - Stock:       no policy, no accounting.
//   - BudgetOff:   null precompiled release tap, hook_budget_ns = 0 — no
//                  budget state, so the DispatchScope skips both clock reads
//                  and all accounting: the policy-dispatch baseline.
//   - BudgetOn:    same tap with a budget that never trips — adds two
//                  ClockNowNs() reads plus the per-hook counters, the full
//                  accounting cost.
//
// The uncontended pair exposes the absolute per-dispatch cost (dominated by
// the two clock reads). The acceptance criterion — accounting adds <= 2%
// when enabled — is on the *contended* path, where each acquisition pays a
// queue handoff plus the critical section: the Contended_* pair holds the
// lock for ~2us of real work with 4 hammering threads so the denominator is
// a realistic contended op, not an empty lock/unlock.

#include <benchmark/benchmark.h>

#include "bench/gbench_json.h"

#include <mutex>

#include "src/base/time.h"
#include "src/concord/concord.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

// The cheapest possible policy: measures the dispatch/accounting machinery,
// not the policy body.
std::uint64_t NullReleaseTap(void*, void*) { return 0; }

// Registers `lock` once per process and attaches the null tap with the given
// budget. Benchmarks re-enter for estimation runs and per-thread instances;
// call_once keeps the registration idempotent.
void AttachOnce(ShflLock& lock, std::once_flag& once, std::uint64_t& id,
                const char* name, std::uint64_t budget_ns) {
  std::call_once(once, [&] {
    Concord& concord = Concord::Global();
    id = concord.RegisterShflLock(lock, name, "bench");
    PolicySpec spec;
    spec.name = "a10-null-tap";
    spec.AddNative(HookKind::kLockRelease, "null", NullReleaseTap);
    spec.hook_budget_ns = budget_ns;
    spec.hook_budget_trip = ~0u;  // never trip during the run
    CONCORD_CHECK(concord.Attach(id, std::move(spec)).ok());
  });
}

void ReportBudgetCounters(benchmark::State& state, std::uint64_t id) {
  if (state.thread_index() == 0) {
    if (const HookBudgetState* budget = Concord::Global().BudgetState(id)) {
      state.counters["dispatches"] = static_cast<double>(budget->TotalCalls());
      state.counters["spent_ns"] = static_cast<double>(budget->TotalSpentNs());
    }
  }
}

// --- uncontended: absolute per-dispatch accounting cost ----------------------

void BM_LockUnlock_Stock(benchmark::State& state) {
  static ShflLock lock;
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
}
BENCHMARK(BM_LockUnlock_Stock);

void BM_LockUnlock_BudgetOff(benchmark::State& state) {
  static ShflLock lock;
  static std::once_flag once;
  static std::uint64_t id;
  AttachOnce(lock, once, id, "a10_off", 0);
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
}
BENCHMARK(BM_LockUnlock_BudgetOff);

void BM_LockUnlock_BudgetOn(benchmark::State& state) {
  static ShflLock lock;
  static std::once_flag once;
  static std::uint64_t id;
  AttachOnce(lock, once, id, "a10_on", 1'000'000'000);
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
  ReportBudgetCounters(state, id);
}
BENCHMARK(BM_LockUnlock_BudgetOn);

// --- contended: the acceptance comparison ------------------------------------
// 4 threads, ~2us critical sections. Per-op cost is handoff + CS (microsecond
// scale), so the accounting delta must stay within the <= 2% budget.

constexpr std::uint64_t kCriticalSectionNs = 2'000;

void BM_Contended_BudgetOff(benchmark::State& state) {
  static ShflLock lock;
  static std::once_flag once;
  static std::uint64_t id;
  AttachOnce(lock, once, id, "a10_contended_off", 0);
  for (auto _ : state) {
    lock.Lock();
    BurnNs(kCriticalSectionNs);
    lock.Unlock();
  }
}
BENCHMARK(BM_Contended_BudgetOff)->Threads(4)->UseRealTime();

void BM_Contended_BudgetOn(benchmark::State& state) {
  static ShflLock lock;
  static std::once_flag once;
  static std::uint64_t id;
  AttachOnce(lock, once, id, "a10_contended_on", 1'000'000'000);
  for (auto _ : state) {
    lock.Lock();
    BurnNs(kCriticalSectionNs);
    lock.Unlock();
  }
  ReportBudgetCounters(state, id);
}
BENCHMARK(BM_Contended_BudgetOn)->Threads(4)->UseRealTime();

}  // namespace
}  // namespace concord

CONCORD_GBENCH_MAIN("a10_containment");
