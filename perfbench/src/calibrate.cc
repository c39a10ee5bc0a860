#include "src/calibrate.h"

#include <vector>

#include "src/base/time.h"
#include "src/base/trace.h"
#include "src/bpf/jit/jit.h"
#include "src/concord/concord.h"
#include "src/concord/hooks.h"
#include "src/concord/profiler.h"
#include "src/control.h"
#include "src/harness.h"
#include "src/rcu/rcu.h"
#include "src/spans.h"
#include "src/sync/bravo.h"
#include "src/sync/shfllock.h"

namespace perfbench {
namespace {

using concord::BravoLock;
using concord::Concord;
using concord::NeutralRwLock;
using concord::ShflLock;

constexpr std::uint32_t kCallsPerRep = 20000;
constexpr int kReps = 15;
constexpr std::uint32_t kSpanOps = 20000;
// An id no registered lock has, for the private profiler stats block.
constexpr std::uint64_t kTapLockId = Concord::kMaxLocks - 1;

template <typename T>
inline void Keep(const T& value) {
  asm volatile("" : : "g"(value) : "memory");
}

// Median over kReps repetitions of the mean ns per call of `body`.
template <typename Body>
double NsPerCall(const TickScale& scale, Body&& body) {
  std::vector<double> per_call;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t start = Ticks();
    for (std::uint32_t i = 0; i < kCallsPerRep; ++i) {
      body();
    }
    per_call.push_back(scale.Ns(Ticks() - start) / kCallsPerRep);
  }
  return ReportPercentile(per_call, 50).value;
}

void AddLedger(Report& report, const char* name, double ns) {
  report.Add(name, ns, "ns", static_cast<std::uint64_t>(kReps) * kCallsPerRep,
             "median of " + std::to_string(kReps) + " reps of " +
                 std::to_string(kCallsPerRep) + " calls, calibration");
}

// A registered private lock with `make`'s policy attached (and checked to be
// JIT-compiled).
class Registration : public ScopedRegistration {
 public:
  Registration(std::uint64_t id, PolicyFactory make) : ScopedRegistration(id) {
    if (!ControlPlane(id, make).Attach(nullptr, 0).has_value()) {
      throw FatalError{"attaching a policy to a calibration lock failed"};
    }
  }
};

}  // namespace

void Calibrate(const TickScale& scale, std::uint64_t registered_lock_id,
               Report& report) {
  Concord& concord = Concord::Global();

  // --- the pair ledger ------------------------------------------------------
  ShflLock bare;
  ShflLock policy;
  TracedMutex<ShflLock> profiled;
  BravoLock<NeutralRwLock> bare_rw;
  TracedRwLock<BravoLock<NeutralRwLock>> policy_rw;
  Registration policy_reg(
      concord.RegisterShflLock(policy, "perfbench.ledger.policy", "perfbench"),
      concord::MakeNumaGroupingPolicy);
  Registration profiled_reg(
      concord.RegisterShflLock(profiled.inner(), "perfbench.ledger.profiled",
                               "perfbench"),
      concord::MakeNumaGroupingPolicy);
  if (!concord.EnableProfiling(profiled_reg.id()).ok()) {
    throw FatalError{"EnableProfiling failed on the ledger lock"};
  }
  Registration rw_reg(
      concord.RegisterRwLock(policy_rw.inner(), "perfbench.ledger.rw", "perfbench"),
      NeutralRwPolicy);

  AddLedger(report, "sync.bare_pair_ns", NsPerCall(scale, [&] {
              bare.Lock();
              bare.Unlock();
            }));
  AddLedger(report, "concord.policy_pair_ns", NsPerCall(scale, [&] {
              policy.Lock();
              policy.Unlock();
            }));
  AddLedger(report, "concord.profiled_pair_ns", NsPerCall(scale, [&] {
              profiled.inner().Lock();
              profiled.inner().Unlock();
            }));
  AddLedger(report, "sync.bare_read_pair_ns", NsPerCall(scale, [&] {
              bare_rw.ReadLock();
              bare_rw.ReadUnlock();
            }));
  AddLedger(report, "concord.policy_read_pair_ns", NsPerCall(scale, [&] {
              policy_rw.inner().ReadLock();
              policy_rw.inner().ReadUnlock();
            }));

  // --- layers that run only inside Lock() -----------------------------------
  concord::ShardedLockProfileStats tap_stats;
  AddLedger(report, "concord.profiler_taps_ns", NsPerCall(scale, [&] {
              concord::ProfilerTaps::OnAcquire(tap_stats, kTapLockId);
              concord::ProfilerTaps::OnAcquired(tap_stats, kTapLockId);
              concord::ProfilerTaps::OnRelease(tap_stats, kTapLockId);
            }));
  concord::Rcu& rcu = concord::Rcu::Global();
  AddLedger(report, "rcu.read_section_ns", NsPerCall(scale, [&] {
              rcu.ReadLock();
              rcu.ReadUnlock();
            }));
  auto rw_mode = NeutralRwPolicy();
  if (!rw_mode.ok() || !rw_mode->spec.VerifyAll().ok()) {
    throw FatalError{"rw_mode policy failed to build or verify"};
  }
  rw_mode->spec.JitCompileAll();
  const concord::Program& program =
      rw_mode->spec.ChainFor(concord::HookKind::kRwMode).programs.front();
  if (program.jit == nullptr) {
    throw FatalError{"rw_mode program fell back to the interpreter"};
  }
  concord::RwModeCtx ctx{rw_reg.id()};
  AddLedger(report, "bpf.rw_mode_run_ns", NsPerCall(scale, [&] {
              Keep(concord::RunPolicyProgram(program, &ctx));
            }));
  AddLedger(report, "base.clock_read_ns",
            NsPerCall(scale, [] { Keep(concord::ClockNowNs()); }));
  AddLedger(report, "base.trace_gate_ns", NsPerCall(scale, [&] {
              concord::TraceRecord(registered_lock_id,
                                   concord::TraceEventKind::kAcquire);
              Keep(registered_lock_id);
            }));

  // --- wrapper spans for layers the workload did not exercise ---------------
  SpanBuffer spans(0, 9 * kSpanOps);  // three ops of three spans each
  const ShflCounters before(profiled.inner());
  const concord::ShardedLockProfileStats& stats = *concord.Stats(profiled_reg.id());
  const std::uint64_t acquisitions0 = stats.Acquisitions();
  const std::uint64_t contentions0 = stats.Contentions();
  for (std::uint32_t i = 0; i < kSpanOps; ++i) {
    OpScope op(spans, SpanKind::kCalibrationOp, i);
    profiled.Lock();
    profiled.Unlock();
  }
  const ShflCounters after(profiled.inner());
  for (std::uint32_t i = 0; i < kSpanOps; ++i) {
    OpScope op(spans, SpanKind::kCalibrationOp, kSpanOps + i);
    policy_rw.ReadLock();
    policy_rw.ReadUnlock();
  }
  for (std::uint32_t i = 0; i < kSpanOps; ++i) {
    OpScope op(spans, SpanKind::kCalibrationOp, 2 * kSpanOps + i);
    policy_rw.WriteLock();
    policy_rw.WriteUnlock();
  }
  const char* source = "calibration, private lock";
  ReportSpans(Summarize({&spans}), scale.ns_per_tick(), source, report);
  ReportShflCounters(before, after, kSpanOps, source, report);
  ReportContention(stats.Acquisitions() - acquisitions0,
                   stats.Contentions() - contentions0, source, report);
}

}  // namespace perfbench
