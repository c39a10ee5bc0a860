// Virtual machine topology.
//
// The paper evaluates on an eight-socket, 80-core machine. This repository
// may run on anything from a laptop to a single-core CI container, so NUMA
// structure is *virtualized*: threads register with a MachineTopology and are
// assigned a virtual CPU (vCPU), which determines their virtual socket. All
// NUMA-aware policies (ShflLock socket grouping, per-socket reader counters)
// key off the virtual socket, so the grouping logic they exercise is
// identical to what would run on real hardware — only the latency
// consequences are simulated (see src/sim for the cost model).

#ifndef SRC_TOPOLOGY_TOPOLOGY_H_
#define SRC_TOPOLOGY_TOPOLOGY_H_

#include <atomic>
#include <cstdint>

#include "src/base/check.h"

namespace concord {

struct TopologyConfig {
  std::uint32_t num_sockets = 8;
  std::uint32_t cores_per_socket = 10;

  std::uint32_t TotalCpus() const { return num_sockets * cores_per_socket; }
};

// Process-global topology. Immutable after the first thread registers
// (changing socket arithmetic under live locks would corrupt per-socket
// state); tests that need different shapes call Reset* between scenarios.
class MachineTopology {
 public:
  static MachineTopology& Global();

  // Configure the virtual machine shape. Must be called before any thread
  // attaches (enforced with a CHECK).
  void Configure(const TopologyConfig& config);

  const TopologyConfig& config() const { return config_; }
  std::uint32_t num_sockets() const { return config_.num_sockets; }
  std::uint32_t total_cpus() const { return config_.TotalCpus(); }

  std::uint32_t SocketOfCpu(std::uint32_t vcpu) const {
    return (vcpu / config_.cores_per_socket) % config_.num_sockets;
  }
  std::uint32_t CoreInSocket(std::uint32_t vcpu) const {
    return vcpu % config_.cores_per_socket;
  }

  // Assigns the next vCPU round-robin across the virtual machine. Sockets
  // fill sequentially (cpu 0..9 = socket 0, 10..19 = socket 1, ...), matching
  // how will-it-scale pins threads in the paper's evaluation.
  std::uint32_t AssignNextCpu() {
    attached_.store(true, std::memory_order_relaxed);
    return next_cpu_.fetch_add(1, std::memory_order_relaxed) % config_.TotalCpus();
  }

  // Test-only: forgets attachment state so Configure can be called again.
  // Caller must guarantee no registered threads are still running.
  void ResetForTest();

 private:
  MachineTopology() = default;

  TopologyConfig config_{};
  std::atomic<std::uint32_t> next_cpu_{0};
  std::atomic<bool> attached_{false};
};

}  // namespace concord

#endif  // SRC_TOPOLOGY_TOPOLOGY_H_
