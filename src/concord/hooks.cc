#include "src/concord/hooks.h"

namespace concord {
namespace {

// The field carrying each LockValue, indexed by it: a waiter view's copies of
// the first two ("curr_wait_ns"), and the profiling context's now_ns.
constexpr const char* kLockValueFields[] = {"wait_ns", "cs_ewma_ns", "now_ns"};

// Appends the ShflWaiterView fields at `base` with a name prefix.
void AppendWaiterViewFields(std::vector<ContextField>& fields,
                            const std::string& prefix, std::uint32_t base) {
  // wait_ns, then cs_ewma_ns.
  fields.push_back({prefix + kLockValueFields[0], base + 0, 8, false});
  fields.push_back({prefix + kLockValueFields[1], base + 8, 8, false});
  fields.push_back({prefix + "socket", base + 16, 4, false});
  fields.push_back({prefix + "vcpu", base + 20, 4, false});
  fields.push_back({prefix + "priority", base + 24, 4, false});
  fields.push_back({prefix + "task_class", base + 28, 4, false});
  fields.push_back({prefix + "locks_held", base + 32, 4, false});
  fields.push_back({prefix + "task_id", base + 36, 4, false});
}

ContextDescriptor MakeCmpNodeDescriptor() {
  std::vector<ContextField> fields;
  AppendWaiterViewFields(fields, "shuffler_", 0);
  AppendWaiterViewFields(fields, "curr_", sizeof(ShflWaiterView));
  return ContextDescriptor("cmp_node", sizeof(CmpNodeCtx), std::move(fields));
}

ContextDescriptor MakeSkipShuffleDescriptor() {
  std::vector<ContextField> fields;
  AppendWaiterViewFields(fields, "shuffler_", 0);
  return ContextDescriptor("skip_shuffle", sizeof(SkipShuffleCtx),
                           std::move(fields));
}

ContextDescriptor MakeScheduleWaiterDescriptor() {
  std::vector<ContextField> fields;
  AppendWaiterViewFields(fields, "waiter_", 0);
  fields.push_back({"spin_iterations", 40, 4, false});
  return ContextDescriptor("schedule_waiter", sizeof(ScheduleWaiterCtx),
                           std::move(fields));
}

ContextDescriptor MakeProfileDescriptor() {
  std::vector<ContextField> fields;
  fields.push_back({"lock_id", 0, 8, false});
  fields.push_back({kLockValueFields[2], 8, 8, false});
  fields.push_back({"hook", 16, 4, false});
  return ContextDescriptor("lock_profile", sizeof(ProfileCtx), std::move(fields));
}

ContextDescriptor MakeRwModeDescriptor() {
  std::vector<ContextField> fields;
  fields.push_back({"lock_id", 0, 8, false});
  return ContextDescriptor("rw_mode", sizeof(RwModeCtx), std::move(fields));
}

}  // namespace

const char* HookKindName(HookKind kind) {
  switch (kind) {
    case HookKind::kCmpNode:
      return "cmp_node";
    case HookKind::kSkipShuffle:
      return "skip_shuffle";
    case HookKind::kScheduleWaiter:
      return "schedule_waiter";
    case HookKind::kLockAcquire:
      return "lock_acquire";
    case HookKind::kLockContended:
      return "lock_contended";
    case HookKind::kLockAcquired:
      return "lock_acquired";
    case HookKind::kLockRelease:
      return "lock_release";
    case HookKind::kRwMode:
      return "rw_mode";
  }
  return "unknown";
}

bool ParseHookKindName(const std::string& name, HookKind* out) {
  for (int i = 0; i < kNumHookKinds; ++i) {
    const auto kind = static_cast<HookKind>(i);
    if (name == HookKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

const ContextDescriptor& DescriptorFor(HookKind kind) {
  static const ContextDescriptor cmp_node = MakeCmpNodeDescriptor();
  static const ContextDescriptor skip_shuffle = MakeSkipShuffleDescriptor();
  static const ContextDescriptor schedule_waiter = MakeScheduleWaiterDescriptor();
  static const ContextDescriptor profile = MakeProfileDescriptor();
  static const ContextDescriptor rw_mode = MakeRwModeDescriptor();
  switch (kind) {
    case HookKind::kCmpNode:
      return cmp_node;
    case HookKind::kSkipShuffle:
      return skip_shuffle;
    case HookKind::kScheduleWaiter:
      return schedule_waiter;
    case HookKind::kLockAcquire:
    case HookKind::kLockContended:
    case HookKind::kLockAcquired:
    case HookKind::kLockRelease:
      return profile;
    case HookKind::kRwMode:
      return rw_mode;
  }
  return profile;
}

bool ReadsLockValue(const Program& program, LockValue value) {
  if (value == LockValue::kCsEwmaNs && program.calls_get_cs_ewma_ns) {
    return true;
  }
  const std::string name = kLockValueFields[static_cast<int>(value)];
  const std::vector<ContextField>& fields = program.ctx_desc->fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if ((program.ctx_fields_read >> i & 1) != 0 &&
        (fields[i].name == name || fields[i].name.ends_with("_" + name))) {
      return true;
    }
  }
  return false;
}

std::uint32_t CapabilitiesFor(HookKind kind) {
  switch (kind) {
    case HookKind::kCmpNode:
    case HookKind::kSkipShuffle:
      // Pure decisions: observe + map state, no tracing, no lock mutation.
      return kCapRead | kCapMapRead | kCapMapWrite;
    case HookKind::kScheduleWaiter:
    case HookKind::kRwMode:
      return kCapRead | kCapMapRead | kCapMapWrite;
    case HookKind::kLockAcquire:
    case HookKind::kLockContended:
    case HookKind::kLockAcquired:
    case HookKind::kLockRelease:
      // Profiling hooks may also trace.
      return kCapRead | kCapMapRead | kCapMapWrite | kCapTrace;
  }
  return kCapRead;
}

}  // namespace concord
