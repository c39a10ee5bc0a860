// The control plane as autotune drives it: attach a fresh policy spec to a
// live lock, snapshot its profile, and let RCU grace periods run.
//
// Every Attach is preceded by a probe: a copy of the same spec goes through
// PolicySpec::VerifyAll and JitCompileAll, and the run fails (FatalError)
// unless every program of it compiled to native code. Attach itself then
// repeats verification and compilation on the fresh spec, as autotune's
// canary does.

#ifndef PERFBENCH_SRC_CONTROL_H_
#define PERFBENCH_SRC_CONTROL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/concord/policies.h"
#include "src/harness.h"
#include "src/spans.h"

namespace perfbench {

using PolicyFactory = concord::StatusOr<concord::TunablePolicy> (*)();

// The pagefault policy: rw_mode with its knob at neutral.
concord::StatusOr<concord::TunablePolicy> NeutralRwPolicy();

// Fails the run unless attach-time compilation is available.
void RequireJit();

// Unregisters a lock from Concord at scope exit. Declare it after the lock so
// that it runs first.
class ScopedRegistration {
 public:
  explicit ScopedRegistration(std::uint64_t id) : id_(id) {}
  ~ScopedRegistration();
  ScopedRegistration(const ScopedRegistration&) = delete;
  ScopedRegistration& operator=(const ScopedRegistration&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

// Canary iterations run against the idle lock after the window on the
// workloads without a live control thread; attach_p50_us is their median.
inline constexpr int kIdleControlIterations = 1200;

class ControlPlane {
 public:
  // Sleep between canary iterations, as autotune's decision tick.
  static constexpr std::uint64_t kIterationSleepNs = 10'000'000;

  ControlPlane(std::uint64_t lock_id, PolicyFactory make);

  // Verifies and compiles a probe copy, then attaches a fresh spec. Returns
  // the wall time of the Attach call in ticks, or nothing when it failed (a
  // failure is counted for Report()). Spans go to `spans` when it is not null.
  std::optional<std::uint64_t> Attach(SpanBuffer* spans, std::uint64_t op_id);

  // One canary iteration: Snapshot (when the lock is profiled), Attach,
  // Rcu::Synchronize. A successful Attach's time is an attach_p50_us sample.
  void Iterate(SpanBuffer* spans, std::uint64_t op_id);

  // Iterates every kIterationSleepNs until the window stops. Runs on its own
  // thread, so a FatalError is kept for ThrowIfFatal() after the join.
  void RunLive(const Window& window, SpanBuffer* spans);

  // kIdleControlIterations back to back.
  void RunIdle(SpanBuffer* spans);

  void ThrowIfFatal() const;

  // attach_p50_us over the canary iterations so far.
  void ReportAttachMedian(double ns_per_tick, const char* source,
                          perfbench::Report& report) const;

  // bpf.jit_share and the "every Attach succeeded" check. Set-up-only runs
  // call it too, so that their attaches are checked as well.
  void Report(perfbench::Report& report) const;

 private:
  std::uint64_t lock_id_;
  PolicyFactory make_;
  std::uint64_t next_op_id_ = 1;
  std::vector<double> attach_ticks_;  // of canary iterations; reserved up front
  std::uint64_t attaches_ = 0;
  std::uint64_t attach_failures_ = 0;
  std::uint64_t programs_ = 0;
  std::uint64_t programs_jitted_ = 0;
  std::string fatal_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CONTROL_H_
