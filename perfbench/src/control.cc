#include "src/control.h"

#include <time.h>

#include <string>

#include "src/bpf/jit/jit.h"
#include "src/concord/concord.h"
#include "src/rcu/rcu.h"

namespace perfbench {
namespace {

constexpr std::size_t kMaxAttachSamples = 1 << 16;

// A scope that records a span only when a buffer is given.
class MaybeSpan {
 public:
  MaybeSpan(SpanBuffer* spans, SpanKind kind, std::uint64_t op_id) {
    if (spans != nullptr) {
      scope_.emplace(*spans, kind, op_id);
    }
  }

 private:
  std::optional<OpScope> scope_;
};

}  // namespace

ScopedRegistration::~ScopedRegistration() {
  (void)concord::Concord::Global().Unregister(id_);
}

concord::StatusOr<concord::TunablePolicy> NeutralRwPolicy() {
  return concord::MakeRwSwitchPolicy(concord::RwMode::kNeutral);
}

void RequireJit() {
  if (!concord::Jit::Enabled()) {
    throw FatalError{
        "policy JIT unavailable (CONCORD_JIT=off or a build without the JIT); "
        "refusing to measure the interpreter"};
  }
}

ControlPlane::ControlPlane(std::uint64_t lock_id, PolicyFactory make)
    : lock_id_(lock_id), make_(make) {
  attach_ticks_.reserve(kMaxAttachSamples);
}

std::optional<std::uint64_t> ControlPlane::Attach(SpanBuffer* spans,
                                                  std::uint64_t op_id) {
  auto policy = make_();
  if (!policy.ok()) {
    throw FatalError{"policy factory failed: " + policy.status().ToString()};
  }
  concord::PolicySpec probe = policy->spec;
  {
    MaybeSpan span(spans, SpanKind::kVerify, op_id);
    const concord::Status verified = probe.VerifyAll();
    if (!verified.ok()) {
      throw FatalError{"policy failed verification: " + verified.ToString()};
    }
  }
  {
    MaybeSpan span(spans, SpanKind::kJitCompile, op_id);
    probe.JitCompileAll();
  }
  for (const concord::HookChain& chain : probe.chains) {
    for (const concord::Program& program : chain.programs) {
      ++programs_;
      programs_jitted_ += program.jit != nullptr ? 1 : 0;
    }
  }
  if (programs_jitted_ != programs_) {
    throw FatalError{"policy '" + probe.name +
                     "' has a program that fell back to the interpreter"};
  }
  concord::Status status;
  std::uint64_t ticks = 0;
  {
    MaybeSpan span(spans, SpanKind::kAttach, op_id);
    const std::uint64_t start = Ticks();
    status = concord::Concord::Global().Attach(lock_id_, std::move(policy->spec));
    ticks = Ticks() - start;
  }
  ++attaches_;
  if (!status.ok()) {
    ++attach_failures_;
    return std::nullopt;
  }
  return ticks;
}

void ControlPlane::Iterate(SpanBuffer* spans, std::uint64_t op_id) {
  MaybeSpan iteration(spans, SpanKind::kControlIteration, op_id);
  const concord::ShardedLockProfileStats* stats =
      concord::Concord::Global().Stats(lock_id_);
  if (stats != nullptr) {
    MaybeSpan span(spans, SpanKind::kSnapshot, op_id);
    const concord::LockProfileSnapshot snapshot = stats->Snapshot();
    // Keep the snapshot observable so it is not optimised away.
    asm volatile("" : : "r"(snapshot.acquisitions) : "memory");
  }
  const std::optional<std::uint64_t> ticks = Attach(spans, op_id);
  if (ticks.has_value() && attach_ticks_.size() < attach_ticks_.capacity()) {
    attach_ticks_.push_back(static_cast<double>(*ticks));
  }
  {
    MaybeSpan span(spans, SpanKind::kSynchronize, op_id);
    concord::Rcu::Global().Synchronize();
  }
}

void ControlPlane::RunLive(const Window& window, SpanBuffer* spans) {
  try {
    while (window.Running()) {
      const timespec ts{0, static_cast<long>(kIterationSleepNs)};
      nanosleep(&ts, nullptr);
      if (!window.Running()) {
        break;
      }
      Iterate(spans, next_op_id_++);
    }
  } catch (const FatalError& error) {
    fatal_ = error.message;
  }
}

void ControlPlane::RunIdle(SpanBuffer* spans) {
  for (int i = 0; i < kIdleControlIterations; ++i) {
    Iterate(spans, next_op_id_++);
  }
}

void ControlPlane::ThrowIfFatal() const {
  if (!fatal_.empty()) {
    throw FatalError{fatal_};
  }
}

void ControlPlane::ReportAttachMedian(double ns_per_tick, const char* source,
                                      perfbench::Report& report) const {
  std::vector<double> samples = attach_ticks_;
  report.AddPercentile("attach_p50_us", samples, 50, "us", ns_per_tick / 1000,
                       source);
}

void ControlPlane::Report(perfbench::Report& report) const {
  report.Add("bpf.jit_share",
             programs_ == 0 ? 0.0
                            : static_cast<double>(programs_jitted_) /
                                  static_cast<double>(programs_),
             "fraction", programs_, "programs compiled / programs attached");
  report.Check("attach", attach_failures_ == 0,
               std::to_string(attach_failures_) + " of " +
                   std::to_string(attaches_) + " attaches failed");
}

}  // namespace perfbench
