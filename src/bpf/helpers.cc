#include "src/bpf/helpers.h"

#include <cstdio>

#include "src/base/fault.h"
#include "src/base/time.h"
#include "src/bpf/program.h"
#include "src/topology/thread_context.h"

namespace concord {
namespace {

// --- core helper implementations -------------------------------------------
// Arguments arrive as raw u64s; pointer arguments are host addresses into the
// VM stack, already validated by the verifier.

std::uint64_t HelperKtimeGetNs(std::uint64_t, std::uint64_t, std::uint64_t,
                               std::uint64_t, std::uint64_t, VmEnv&) {
  return MonotonicNowNs();
}

std::uint64_t HelperGetSmpProcessorId(std::uint64_t, std::uint64_t, std::uint64_t,
                                      std::uint64_t, std::uint64_t, VmEnv&) {
  return Self().vcpu;
}

std::uint64_t HelperGetNumaNodeId(std::uint64_t, std::uint64_t, std::uint64_t,
                                  std::uint64_t, std::uint64_t, VmEnv&) {
  return Self().socket;
}

std::uint64_t HelperGetCurrentTaskId(std::uint64_t, std::uint64_t, std::uint64_t,
                                     std::uint64_t, std::uint64_t, VmEnv&) {
  return Self().task_id;
}

std::uint64_t HelperGetTaskPriority(std::uint64_t, std::uint64_t, std::uint64_t,
                                    std::uint64_t, std::uint64_t, VmEnv&) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(Self().priority.load(std::memory_order_relaxed)));
}

std::uint64_t HelperGetTaskClass(std::uint64_t, std::uint64_t, std::uint64_t,
                                 std::uint64_t, std::uint64_t, VmEnv&) {
  return Self().task_class.load(std::memory_order_relaxed);
}

std::uint64_t HelperGetLocksHeld(std::uint64_t, std::uint64_t, std::uint64_t,
                                 std::uint64_t, std::uint64_t, VmEnv&) {
  return Self().locks_held.load(std::memory_order_relaxed);
}

std::uint64_t HelperGetCsEwmaNs(std::uint64_t, std::uint64_t, std::uint64_t,
                                std::uint64_t, std::uint64_t, VmEnv&) {
  return Self().cs_length_ewma_ns.load(std::memory_order_relaxed);
}

// Task-indexed context reads: the hypervisor/scheduler-semantics use case
// (§3.1.1) — policies reason about *other* waiters' scheduling state, so
// these take a task id instead of reading the calling thread.
ThreadContext* TaskAt(std::uint64_t task_id) {
  ThreadRegistry& registry = ThreadRegistry::Global();
  if (task_id >= registry.num_registered()) {
    return nullptr;
  }
  return &registry.Get(static_cast<std::uint32_t>(task_id));
}

std::uint64_t HelperGetTaskQuotaNs(std::uint64_t task_id, std::uint64_t,
                                   std::uint64_t, std::uint64_t, std::uint64_t,
                                   VmEnv&) {
  ThreadContext* ctx = TaskAt(task_id);
  return ctx == nullptr ? 0
                        : ctx->time_quota_ns.load(std::memory_order_relaxed);
}

std::uint64_t HelperGetTaskPreemptible(std::uint64_t task_id, std::uint64_t,
                                       std::uint64_t, std::uint64_t,
                                       std::uint64_t, VmEnv&) {
  ThreadContext* ctx = TaskAt(task_id);
  return ctx == nullptr ? 1
                        : ctx->preemptible.load(std::memory_order_relaxed);
}

BpfMap* MapAt(VmEnv& env, std::uint64_t index) {
  if (env.program == nullptr || index >= env.program->maps.size()) {
    return nullptr;
  }
  return env.program->maps[static_cast<std::size_t>(index)];
}

std::uint64_t HelperMapLookupElem(std::uint64_t map_index, std::uint64_t key_ptr,
                                  std::uint64_t, std::uint64_t, std::uint64_t,
                                  VmEnv& env) {
  if (CONCORD_FAULT_POINT("bpf.map_lookup")) {
    return 0;  // injected miss: policies must tolerate a null map value
  }
  BpfMap* map = MapAt(env, map_index);
  if (map == nullptr) {
    return 0;
  }
  return reinterpret_cast<std::uint64_t>(
      map->Lookup(reinterpret_cast<const void*>(key_ptr)));
}

std::uint64_t HelperMapUpdateElem(std::uint64_t map_index, std::uint64_t key_ptr,
                                  std::uint64_t value_ptr, std::uint64_t,
                                  std::uint64_t, VmEnv& env) {
  if (CONCORD_FAULT_POINT("bpf.helper")) {
    return static_cast<std::uint64_t>(-1);
  }
  BpfMap* map = MapAt(env, map_index);
  if (map == nullptr) {
    return static_cast<std::uint64_t>(-1);
  }
  // Program-side update: per-CPU maps write only the calling CPU's slot
  // (kernel BPF contract); single-instance maps fall through to Update.
  Status status = map->UpdateThisCpu(reinterpret_cast<const void*>(key_ptr),
                                     reinterpret_cast<const void*>(value_ptr));
  return status.ok() ? 0 : static_cast<std::uint64_t>(-1);
}

std::uint64_t HelperMapDeleteElem(std::uint64_t map_index, std::uint64_t key_ptr,
                                  std::uint64_t, std::uint64_t, std::uint64_t,
                                  VmEnv& env) {
  if (CONCORD_FAULT_POINT("bpf.helper")) {
    return static_cast<std::uint64_t>(-1);
  }
  BpfMap* map = MapAt(env, map_index);
  if (map == nullptr) {
    return static_cast<std::uint64_t>(-1);
  }
  Status status = map->Delete(reinterpret_cast<const void*>(key_ptr));
  return status.ok() ? 0 : static_cast<std::uint64_t>(-1);
}

std::uint64_t HelperTracePrintk(std::uint64_t tag, std::uint64_t v1,
                                std::uint64_t v2, std::uint64_t, std::uint64_t,
                                VmEnv&) {
  std::fprintf(stderr, "[bpf-trace tag=%llu] %llu %llu\n",
               static_cast<unsigned long long>(tag),
               static_cast<unsigned long long>(v1),
               static_cast<unsigned long long>(v2));
  return 0;
}

}  // namespace

HelperRegistry& HelperRegistry::Global() {
  static HelperRegistry* registry = new HelperRegistry();
  return *registry;
}

HelperRegistry::HelperRegistry() { RegisterCoreHelpers(); }

const HelperDef* HelperRegistry::Find(std::uint32_t id) const {
  for (const auto& helper : helpers_) {
    if (helper.id == id) {
      return &helper;
    }
  }
  return nullptr;
}

const HelperDef* HelperRegistry::FindByName(const std::string& name) const {
  for (const auto& helper : helpers_) {
    if (helper.name == name) {
      return &helper;
    }
  }
  return nullptr;
}

void HelperRegistry::RegisterCoreHelpers() {
  const HelperArgKind kNoArgs[5] = {HelperArgKind::kNone, HelperArgKind::kNone,
                                    HelperArgKind::kNone, HelperArgKind::kNone,
                                    HelperArgKind::kNone};

  auto add = [this](std::uint32_t id, const char* name, HelperFn fn,
                    const HelperArgKind (&args)[5], HelperRetKind ret,
                    std::uint32_t caps) {
    HelperDef def;
    def.id = id;
    def.name = name;
    def.fn = fn;
    for (int i = 0; i < 5; ++i) {
      def.args[i] = args[i];
    }
    def.ret = ret;
    def.capabilities = caps;
    helpers_.push_back(std::move(def));
  };

  add(kHelperKtimeGetNs, "ktime_get_ns", HelperKtimeGetNs, kNoArgs,
      HelperRetKind::kScalar, kCapRead);
  add(kHelperGetSmpProcessorId, "get_smp_processor_id", HelperGetSmpProcessorId,
      kNoArgs, HelperRetKind::kScalar, kCapRead);
  add(kHelperGetNumaNodeId, "get_numa_node_id", HelperGetNumaNodeId, kNoArgs,
      HelperRetKind::kScalar, kCapRead);
  add(kHelperGetCurrentTaskId, "get_current_task_id", HelperGetCurrentTaskId,
      kNoArgs, HelperRetKind::kScalar, kCapRead);
  add(kHelperGetTaskPriority, "get_task_priority", HelperGetTaskPriority, kNoArgs,
      HelperRetKind::kScalar, kCapRead);
  add(kHelperGetTaskClass, "get_task_class", HelperGetTaskClass, kNoArgs,
      HelperRetKind::kScalar, kCapRead);
  add(kHelperGetLocksHeld, "get_locks_held", HelperGetLocksHeld, kNoArgs,
      HelperRetKind::kScalar, kCapRead);
  add(kHelperGetCsEwmaNs, "get_cs_ewma_ns", HelperGetCsEwmaNs, kNoArgs,
      HelperRetKind::kScalar, kCapRead);
  {
    const HelperArgKind args[5] = {HelperArgKind::kScalar, HelperArgKind::kNone,
                                   HelperArgKind::kNone, HelperArgKind::kNone,
                                   HelperArgKind::kNone};
    add(kHelperGetTaskQuotaNs, "get_task_quota_ns", HelperGetTaskQuotaNs, args,
        HelperRetKind::kScalar, kCapRead);
    add(kHelperGetTaskPreemptible, "get_task_preemptible",
        HelperGetTaskPreemptible, args, HelperRetKind::kScalar, kCapRead);
  }

  {
    const HelperArgKind args[5] = {HelperArgKind::kConstMapIndex,
                                   HelperArgKind::kStackKeyPtr, HelperArgKind::kNone,
                                   HelperArgKind::kNone, HelperArgKind::kNone};
    add(kHelperMapLookupElem, "map_lookup_elem", HelperMapLookupElem, args,
        HelperRetKind::kMapValueOrNull, kCapRead | kCapMapRead);
  }
  {
    const HelperArgKind args[5] = {
        HelperArgKind::kConstMapIndex, HelperArgKind::kStackKeyPtr,
        HelperArgKind::kStackValuePtr, HelperArgKind::kNone, HelperArgKind::kNone};
    add(kHelperMapUpdateElem, "map_update_elem", HelperMapUpdateElem, args,
        HelperRetKind::kScalar, kCapRead | kCapMapRead | kCapMapWrite);
  }
  {
    const HelperArgKind args[5] = {HelperArgKind::kConstMapIndex,
                                   HelperArgKind::kStackKeyPtr, HelperArgKind::kNone,
                                   HelperArgKind::kNone, HelperArgKind::kNone};
    add(kHelperMapDeleteElem, "map_delete_elem", HelperMapDeleteElem, args,
        HelperRetKind::kScalar, kCapRead | kCapMapRead | kCapMapWrite);
  }
  {
    const HelperArgKind args[5] = {HelperArgKind::kScalar, HelperArgKind::kScalar,
                                   HelperArgKind::kScalar, HelperArgKind::kNone,
                                   HelperArgKind::kNone};
    add(kHelperTracePrintk, "trace_printk", HelperTracePrintk, args,
        HelperRetKind::kScalar, kCapRead | kCapTrace);
  }
}

}  // namespace concord
