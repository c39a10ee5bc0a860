// Per-thread context block — the "context" in Contextual Concurrency Control.
//
// C3's core observation is that kernel locks cannot see application context:
// which thread matters, what it already holds, how long its critical sections
// run, whether its (v)CPU is about to be scheduled out. ThreadContext is the
// carrier for that information. Applications (or the runtime) annotate it;
// lock policies — native or BPF — read it through the policy context structs
// in src/concord/hooks.h and the BPF helpers in src/concord/helpers.cc.

#ifndef SRC_TOPOLOGY_THREAD_CONTEXT_H_
#define SRC_TOPOLOGY_THREAD_CONTEXT_H_

#include <atomic>
#include <cstdint>

#include "src/base/cacheline.h"
#include "src/topology/topology.h"

namespace concord {

// Scheduling class mirroring what a kernel would know about the task.
enum class TaskClass : std::uint8_t {
  kBackground = 0,  // e.g. compaction, writeback
  kNormal = 1,
  kLatencyCritical = 2,  // e.g. foreground request threads
  kRealtime = 3,
};

struct CONCORD_CACHE_ALIGNED ThreadContext {
  // --- identity, fixed at registration -----------------------------------
  std::uint32_t task_id = 0;     // dense id, assigned at registration
  std::uint32_t vcpu = 0;        // virtual CPU this thread is "pinned" to
  std::uint32_t socket = 0;      // virtual socket of vcpu

  // --- application-provided context (the C3 annotations) -----------------
  std::atomic<std::uint8_t> task_class{static_cast<std::uint8_t>(TaskClass::kNormal)};
  std::atomic<std::int32_t> priority{0};       // higher = more important
  std::atomic<std::uint64_t> time_quota_ns{0};  // vCPU remaining quota (double-scheduling)
  std::atomic<std::uint32_t> preemptible{1};    // 0 => vCPU known-runnable (hypervisor hint)

  // --- runtime-maintained lock context ------------------------------------
  // Written only by the owning thread (ShflLock's holder bookkeeping), with a
  // relaxed load and store rather than an RMW; policies on other threads
  // read them.
  std::atomic<std::uint32_t> locks_held{0};     // nesting depth across all locks
  std::atomic<std::uint64_t> cs_length_ewma_ns{0};  // critical-section length estimate

  TaskClass Class() const {
    return static_cast<TaskClass>(task_class.load(std::memory_order_relaxed));
  }

  void UpdateCsEwma(std::uint64_t sample_ns) {
    // EWMA with alpha = 1/8, matching kernel-style fixed-point averaging.
    std::uint64_t old_value = cs_length_ewma_ns.load(std::memory_order_relaxed);
    std::uint64_t new_value = old_value - old_value / 8 + sample_ns / 8;
    cs_length_ewma_ns.store(new_value, std::memory_order_relaxed);
  }
};

// Registry of all thread contexts. Contexts live for the process lifetime
// (slots are never freed) so lock queues and BPF programs may hold raw
// pointers without lifetime hazards.
class ThreadRegistry {
 public:
  static constexpr std::uint32_t kMaxThreads = 4096;

  static ThreadRegistry& Global();

  // Returns the calling thread's context, registering it on first use.
  // Registration assigns the next round-robin vCPU from the global topology.
  ThreadContext& Current();

  // Registers the calling thread on an explicit vCPU (benchmark drivers use
  // this to emulate will-it-scale pinning). CHECK-fails if already registered.
  ThreadContext& RegisterCurrent(std::uint32_t vcpu);

  // True if the calling thread has already registered.
  bool IsCurrentRegistered() const;

  std::uint32_t num_registered() const {
    return next_id_.load(std::memory_order_acquire);
  }

  // Indexed access for monitors/profilers; id < num_registered().
  ThreadContext& Get(std::uint32_t task_id);

 private:
  ThreadRegistry() = default;

  ThreadContext& RegisterOn(std::uint32_t vcpu);

  std::atomic<std::uint32_t> next_id_{0};
  ThreadContext slots_[kMaxThreads];
};

// Convenience accessor used throughout the lock slow paths.
inline ThreadContext& Self() { return ThreadRegistry::Global().Current(); }

}  // namespace concord

#endif  // SRC_TOPOLOGY_THREAD_CONTEXT_H_
