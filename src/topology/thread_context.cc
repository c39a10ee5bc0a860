#include "src/topology/thread_context.h"

namespace concord {
namespace {

thread_local ThreadContext* tls_context = nullptr;

}  // namespace

ThreadRegistry& ThreadRegistry::Global() {
  static ThreadRegistry* registry = new ThreadRegistry();  // intentionally leaked
  return *registry;
}

ThreadContext& ThreadRegistry::Current() {
  if (tls_context == nullptr) {
    return RegisterOn(MachineTopology::Global().AssignNextCpu());
  }
  return *tls_context;
}

ThreadContext& ThreadRegistry::RegisterCurrent(std::uint32_t vcpu) {
  CONCORD_CHECK(tls_context == nullptr);
  CONCORD_CHECK(vcpu < MachineTopology::Global().total_cpus());
  return RegisterOn(vcpu);
}

bool ThreadRegistry::IsCurrentRegistered() const { return tls_context != nullptr; }

ThreadContext& ThreadRegistry::Get(std::uint32_t task_id) {
  CONCORD_CHECK(task_id < next_id_.load(std::memory_order_acquire));
  return slots_[task_id];
}

ThreadContext& ThreadRegistry::RegisterOn(std::uint32_t vcpu) {
  const std::uint32_t id = next_id_.fetch_add(1, std::memory_order_acq_rel);
  CONCORD_CHECK(id < kMaxThreads);
  ThreadContext& ctx = slots_[id];
  ctx.task_id = id;
  ctx.vcpu = vcpu;
  ctx.socket = MachineTopology::Global().SocketOfCpu(vcpu);
  tls_context = &ctx;
  return ctx;
}

}  // namespace concord
