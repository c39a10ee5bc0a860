// A8: profiling-tap cost (google-benchmark). Table 1's hazard column for the
// four profiling hooks is "increase critical section" — this quantifies it:
// uncontended lock/unlock with no profiling, the built-in native profiler,
// and the all-BPF per-CPU-map profiler.
//
// Also the flight recorder's overhead budget: TraceRuntimeOff measures a
// registered lock with the recorder not enabled (the always-paid gate
// branch; compare against BM_LockUnlock_NoProfiling), and TraceEnabled
// measures full per-event recording.

#include <benchmark/benchmark.h>

#include "bench/gbench_json.h"
#include "src/base/trace.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

void BM_LockUnlock_NoProfiling(benchmark::State& state) {
  ShflLock lock;
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
}
BENCHMARK(BM_LockUnlock_NoProfiling);

void BM_LockUnlock_NativeProfiler(benchmark::State& state) {
  static ShflLock lock;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "a8_native", "bench");
  CONCORD_CHECK(concord.EnableProfiling(id).ok());
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
  state.counters["acquisitions"] = static_cast<double>(
      concord.Stats(id)->Acquisitions());
  CONCORD_CHECK(concord.Unregister(id).ok());
}
BENCHMARK(BM_LockUnlock_NativeProfiler);

void BM_LockUnlock_BpfProfiler(benchmark::State& state) {
  static ShflLock lock;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "a8_bpf", "bench");
  auto profiler = MakeBpfProfilerPolicy();
  CONCORD_CHECK(profiler.ok());
  auto counters = profiler->counters;  // keep alive across the Attach move
  CONCORD_CHECK(concord.Attach(id, std::move(profiler->spec)).ok());
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
  state.counters["bpf_acquires"] =
      static_cast<double>(counters->AggregateU64(0));
  CONCORD_CHECK(concord.Unregister(id).ok());
}
BENCHMARK(BM_LockUnlock_BpfProfiler);

void BM_LockUnlock_TraceRuntimeOff(benchmark::State& state) {
  static ShflLock lock;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "a8_troff", "bench");
  // Registered (nonzero lock id, so the gate really indexes the bitmap) but
  // tracing never enabled: this is the cost production pays for carrying the
  // recorder.
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
  CONCORD_CHECK(concord.Unregister(id).ok());
}
BENCHMARK(BM_LockUnlock_TraceRuntimeOff);

void BM_LockUnlock_TraceEnabled(benchmark::State& state) {
  static ShflLock lock;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "a8_tron", "bench");
  CONCORD_CHECK(concord.EnableTracing(id).ok());
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
  state.counters["trace_events"] = static_cast<double>(
      TraceRegistry::Global().Collect().size());
  CONCORD_CHECK(concord.DisableTracing(id).ok());
  CONCORD_CHECK(concord.Unregister(id).ok());
}
BENCHMARK(BM_LockUnlock_TraceEnabled);

}  // namespace
}  // namespace concord

CONCORD_GBENCH_MAIN("a8_profiler_overhead");
