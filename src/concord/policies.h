// Ready-made policies — the paper's §3 use cases, written as BPF programs
// against the Concord hook descriptors.
//
// Each factory returns a PolicySpec whose programs are assembled but not yet
// verified (Concord::Attach verifies). Policies that take runtime knobs
// (thresholds, modes) read them from an array map owned by the spec; the
// returned handle exposes the map so userspace can retune the live policy
// without re-attaching — tuning a running kernel lock from userspace is the
// paper's headline capability.

#ifndef SRC_CONCORD_POLICIES_H_
#define SRC_CONCORD_POLICIES_H_

#include <memory>

#include "src/base/status.h"
#include "src/bpf/maps.h"
#include "src/concord/policy.h"

namespace concord {

// A spec plus its tuning map (slot 0 = the knob), if the policy has one.
struct TunablePolicy {
  PolicySpec spec;
  std::shared_ptr<ArrayMap> knobs;  // null for knob-free policies

  Status SetKnob(std::uint32_t slot, std::uint64_t value) {
    if (knobs == nullptr) {
      return FailedPreconditionError("policy has no tuning map");
    }
    return knobs->UpdateTyped(slot, value);
  }
};

// §3.1.1 "Lock switching"/NUMA-awareness: group same-socket waiters behind
// the shuffler (the ShflLock NUMA policy evaluated in Figure 2(b)).
StatusOr<TunablePolicy> MakeNumaGroupingPolicy();

// §3.1.1 "Lock priority boosting": waiters whose priority annotation is
// >= knob[0] (default 1) are pulled into the shuffler's group.
StatusOr<TunablePolicy> MakePriorityBoostPolicy();

// §3.1.1 "Lock inheritance": waiters already holding other locks (nested
// acquirers, e.g. rename paths) are boosted past lock-free waiters.
StatusOr<TunablePolicy> MakeLockInheritancePolicy();

// §3.1.2 "Task-fair co-operative scheduling" (scheduler-cooperative lock):
// waiters whose critical-section EWMA is below knob[0] ns (default 1ms) are
// boosted, penalizing lock hogs.
StatusOr<TunablePolicy> MakeSclPolicy();

// §3.1.2 "Task-fair locks on AMP machines": waiters on fast cores
// (vcpu < knob[0], default 4) are boosted so slow cores do not gate handoff.
StatusOr<TunablePolicy> MakeAmpFastCorePolicy();

// §3.1.1 "Exposing scheduler semantics": in an oversubscribed VM, prefer
// waiters whose vCPU the hypervisor marked non-preemptible (it will finish
// its critical section without a double-scheduling stall). Hypervisor-side
// code annotates ThreadContext::preemptible; the policy reads it via the
// task-indexed helper.
StatusOr<TunablePolicy> MakeVcpuPreemptionPolicy();

// §3.1.1 "Adaptable parking/wake-up strategy": park after knob[0] spin
// iterations (default 256). knob[0] = ~0 means never park.
StatusOr<TunablePolicy> MakeAdaptiveParkingPolicy();

// Fairness guard composing with any shuffling policy: skip shuffling when
// the shuffler itself has already waited longer than knob[0] ns
// (default 10ms) — bounds how much reordering a long-suffering head does
// for others.
StatusOr<TunablePolicy> MakeShuffleFairnessGuard();

// §3.1.1 lock switching for readers-writer locks: rw_mode returns knob[0]
// (an RwMode value), so userspace flips a live lock between neutral,
// reader-biased (BRAVO) and writer-only regimes by poking the map; a knob
// above 2 reads as neutral. This is "Concord-BRAVO" in Figure 2(a).
StatusOr<TunablePolicy> MakeRwSwitchPolicy(RwMode initial_mode);

// §3.2 dynamic lock profiling entirely in BPF: the four taps count
// invocations into a per-CPU map (slots 0..3 = acquire/contended/acquired/
// release). Demonstrates BPF-side profiling as opposed to the built-in
// native profiler; read results via SumTapCounts.
struct BpfProfilerPolicy {
  PolicySpec spec;
  std::shared_ptr<PerCpuArrayMap> counters;

  std::uint64_t Count(HookKind tap) const;
};
StatusOr<BpfProfilerPolicy> MakeBpfProfilerPolicy();

// Per-task-class acquisition census on a per-CPU hash map: the kLockAcquire
// tap counts acquisitions keyed by the caller's task_class annotation, each
// CPU into its own value slot — keyed telemetry with zero cross-CPU cache
// traffic on the count itself. Read with CountForClass (cross-CPU sum) or by
// walking `census` directly.
struct LockCensusPolicy {
  PolicySpec spec;
  std::shared_ptr<PerCpuHashMap> census;

  std::uint64_t CountForClass(std::uint64_t task_class) const;
};
StatusOr<LockCensusPolicy> MakeLockCensusPolicy(std::uint32_t max_classes = 64);

}  // namespace concord

#endif  // SRC_CONCORD_POLICIES_H_
