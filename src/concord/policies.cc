#include "src/concord/policies.h"

#include <cstdio>

#include "src/bpf/assembler.h"
#include "src/topology/topology.h"

namespace concord {
namespace {

// Context offsets (see src/concord/hooks.h). Kept as named constants so the
// assembly below reads like the struct definitions.
//   CmpNodeCtx:        shuffler @0, curr @40
//   field offsets within a ShflWaiterView:
//     wait_ns 0, cs_ewma_ns 8, socket 16, vcpu 20, priority 24,
//     task_class 28, locks_held 32, task_id 36

// Builds a TunablePolicy with one program attached at `kind`.
StatusOr<TunablePolicy> MakeSingleProgramPolicy(
    const std::string& name, HookKind kind, const std::string& asm_source,
    std::shared_ptr<ArrayMap> knobs) {
  std::vector<BpfMap*> maps;
  if (knobs != nullptr) {
    maps.push_back(knobs.get());
  }
  auto program = AssembleProgram(name, asm_source, &DescriptorFor(kind), maps);
  if (!program.ok()) {
    return program.status();
  }
  TunablePolicy policy;
  policy.spec.name = name;
  CONCORD_RETURN_IF_ERROR(policy.spec.AddProgram(kind, std::move(*program)));
  if (knobs != nullptr) {
    policy.spec.maps.push_back(knobs);
    policy.knobs = std::move(knobs);
  }
  return policy;
}

std::shared_ptr<ArrayMap> MakeKnobMap(const std::string& name,
                                      std::uint64_t initial) {
  auto map = std::make_shared<ArrayMap>(name, sizeof(std::uint64_t), 1);
  CONCORD_CHECK(map->UpdateTyped(std::uint32_t{0}, initial).ok());
  return map;
}

// Shared prologue: save ctx in r6, load knob[0] into r3 (falls through to
// label `nope` returning 0 when the map is somehow empty).
constexpr char kLoadKnobPrologue[] = R"(
  mov r6, r1            ; save ctx across the call
  stw [r10-4], 0        ; key = 0
  mov r1, 0             ; map index 0
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jeq r0, 0, nope
  ldxdw r3, [r0+0]      ; r3 = knob value
)";

}  // namespace

StatusOr<TunablePolicy> MakeNumaGroupingPolicy() {
  const char* source = R"(
    ldxw r2, [r1+16]    ; shuffler.socket
    ldxw r3, [r1+56]    ; curr.socket
    jeq r2, r3, yes
    mov r0, 0
    exit
  yes:
    mov r0, 1
    exit
  )";
  return MakeSingleProgramPolicy("numa_grouping", HookKind::kCmpNode, source,
                                 nullptr);
}

StatusOr<TunablePolicy> MakePriorityBoostPolicy() {
  const std::string source = std::string(kLoadKnobPrologue) + R"(
    ldxw r4, [r6+64]    ; curr.priority
    jge r4, r3, yes     ; priority >= threshold => boost
  nope:
    mov r0, 0
    exit
  yes:
    mov r0, 1
    exit
  )";
  return MakeSingleProgramPolicy("priority_boost", HookKind::kCmpNode, source,
                                 MakeKnobMap("priority_threshold", 1));
}

StatusOr<TunablePolicy> MakeLockInheritancePolicy() {
  const std::string source = std::string(kLoadKnobPrologue) + R"(
    ldxw r4, [r6+72]    ; curr.locks_held
    jge r4, r3, yes     ; nested acquirer => boost
  nope:
    mov r0, 0
    exit
  yes:
    mov r0, 1
    exit
  )";
  return MakeSingleProgramPolicy("lock_inheritance", HookKind::kCmpNode, source,
                                 MakeKnobMap("min_locks_held", 1));
}

StatusOr<TunablePolicy> MakeSclPolicy() {
  const std::string source = std::string(kLoadKnobPrologue) + R"(
    ldxdw r4, [r6+48]   ; curr.cs_ewma_ns
    jlt r4, r3, yes     ; short critical sections => boost
  nope:
    mov r0, 0
    exit
  yes:
    mov r0, 1
    exit
  )";
  return MakeSingleProgramPolicy("scheduler_cooperative", HookKind::kCmpNode,
                                 source,
                                 MakeKnobMap("cs_ewma_limit_ns", 1'000'000));
}

StatusOr<TunablePolicy> MakeAmpFastCorePolicy() {
  const std::string source = std::string(kLoadKnobPrologue) + R"(
    ldxw r4, [r6+60]    ; curr.vcpu
    jlt r4, r3, yes     ; fast core => boost
  nope:
    mov r0, 0
    exit
  yes:
    mov r0, 1
    exit
  )";
  return MakeSingleProgramPolicy("amp_fast_core", HookKind::kCmpNode, source,
                                 MakeKnobMap("fast_core_count", 4));
}

StatusOr<TunablePolicy> MakeVcpuPreemptionPolicy() {
  const char* source = R"(
    ldxw r1, [r1+76]          ; curr.task_id
    call get_task_preemptible
    jeq  r0, 0, yes           ; pinned/running vCPU => boost
    mov  r0, 0
    exit
  yes:
    mov  r0, 1
    exit
  )";
  return MakeSingleProgramPolicy("vcpu_preemption", HookKind::kCmpNode, source,
                                 nullptr);
}

StatusOr<TunablePolicy> MakeAdaptiveParkingPolicy() {
  // The waiter context is read before the helper call: schedule_waiter must
  // not keep its pointer across one (policy_lint.h), so only the scalar
  // spin count lives in r6.
  const char* source = R"(
    ldxw r6, [r1+40]    ; spin_iterations
    stw [r10-4], 0      ; key = 0
    mov r1, 0           ; map index 0
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jeq r0, 0, nope
    ldxdw r3, [r0+0]    ; r3 = knob value
    jge r6, r3, park
  nope:
    mov r0, 0
    exit
  park:
    mov r0, 1
    exit
  )";
  return MakeSingleProgramPolicy("adaptive_parking", HookKind::kScheduleWaiter,
                                 source, MakeKnobMap("park_after_spins", 256));
}

StatusOr<TunablePolicy> MakeShuffleFairnessGuard() {
  const std::string source = std::string(kLoadKnobPrologue) + R"(
    ldxdw r4, [r6+0]    ; shuffler.wait_ns
    jgt r4, r3, skip    ; head waited too long already => stop shuffling
  nope:
    mov r0, 0
    exit
  skip:
    mov r0, 1
    exit
  )";
  return MakeSingleProgramPolicy("shuffle_fairness_guard", HookKind::kSkipShuffle,
                                 source, MakeKnobMap("max_head_wait_ns", 10'000'000));
}

StatusOr<TunablePolicy> MakeRwSwitchPolicy(RwMode initial_mode) {
  const char* source = R"(
    stw [r10-4], 0
    mov r1, 0
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jeq r0, 0, dflt
    ldxdw r0, [r0+0]    ; mode from the knob map
    jgt r0, 2, dflt     ; not an RwMode
    exit
  dflt:
    mov r0, 0           ; neutral
    exit
  )";
  return MakeSingleProgramPolicy(
      "rw_switch", HookKind::kRwMode, source,
      MakeKnobMap("rw_mode", static_cast<std::uint64_t>(initial_mode)));
}

StatusOr<BpfProfilerPolicy> MakeBpfProfilerPolicy() {
  auto counters = std::make_shared<PerCpuArrayMap>(
      "tap_counters", sizeof(std::uint64_t), 4,
      MachineTopology::Global().total_cpus());

  auto make_tap = [&](const char* name, int slot) -> StatusOr<Program> {
    char source[512];
    std::snprintf(source, sizeof(source), R"(
      stw [r10-4], %d
      mov r1, 0
      mov r2, r10
      add r2, -4
      call map_lookup_elem
      jeq r0, 0, out
      mov r2, 1
      xadddw [r0+0], r2     ; atomic: taps race across CPUs on shared slots
    out:
      mov r0, 0
      exit
    )",
                  slot);
    return AssembleProgram(name, source,
                           &DescriptorFor(HookKind::kLockAcquire),
                           {counters.get()});
  };

  BpfProfilerPolicy policy;
  policy.spec.name = "bpf_profiler";
  policy.counters = counters;
  policy.spec.maps.push_back(counters);

  struct TapSlot {
    HookKind kind;
    const char* name;
    int slot;
  };
  const TapSlot taps[] = {{HookKind::kLockAcquire, "tap_acquire", 0},
                          {HookKind::kLockContended, "tap_contended", 1},
                          {HookKind::kLockAcquired, "tap_acquired", 2},
                          {HookKind::kLockRelease, "tap_release", 3}};
  for (const TapSlot& tap : taps) {
    auto program = make_tap(tap.name, tap.slot);
    if (!program.ok()) {
      return program.status();
    }
    CONCORD_RETURN_IF_ERROR(policy.spec.AddProgram(tap.kind, std::move(*program)));
  }
  return policy;
}

std::uint64_t BpfProfilerPolicy::Count(HookKind tap) const {
  int slot;
  switch (tap) {
    case HookKind::kLockAcquire:
      slot = 0;
      break;
    case HookKind::kLockContended:
      slot = 1;
      break;
    case HookKind::kLockAcquired:
      slot = 2;
      break;
    case HookKind::kLockRelease:
      slot = 3;
      break;
    default:
      return 0;
  }
  return counters->AggregateU64(static_cast<std::uint32_t>(slot));
}

StatusOr<LockCensusPolicy> MakeLockCensusPolicy(std::uint32_t max_classes) {
  auto census = std::make_shared<PerCpuHashMap>(
      "class_census", sizeof(std::uint64_t), sizeof(std::uint64_t), max_classes,
      MachineTopology::Global().total_cpus());

  // Count into the calling CPU's slot; first sight of a class inserts it via
  // map_update_elem (program-side, so only this CPU's slot takes the 1 —
  // other CPUs' slots start zeroed).
  const char* source = R"(
    call get_task_class
    stxdw [r10-8], r0     ; key = task_class
    mov r1, 0
    mov r2, r10
    add r2, -8
    call map_lookup_elem
    jeq r0, 0, miss
    mov r2, 1
    xadddw [r0+0], r2     ; per-CPU slot: no cross-CPU contention
    mov r0, 0
    exit
  miss:
    stdw [r10-16], 1
    mov r1, 0
    mov r2, r10
    add r2, -8
    mov r3, r10
    add r3, -16
    call map_update_elem
    mov r0, 0
    exit
  )";
  auto program = AssembleProgram("census_acquire", source,
                                 &DescriptorFor(HookKind::kLockAcquire),
                                 {census.get()});
  if (!program.ok()) {
    return program.status();
  }

  LockCensusPolicy policy;
  policy.spec.name = "lock_census";
  policy.census = census;
  policy.spec.maps.push_back(census);
  CONCORD_RETURN_IF_ERROR(
      policy.spec.AddProgram(HookKind::kLockAcquire, std::move(*program)));
  return policy;
}

std::uint64_t LockCensusPolicy::CountForClass(std::uint64_t task_class) const {
  return census->AggregateU64(&task_class);
}

}  // namespace concord
