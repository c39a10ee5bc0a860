// Worker-side glue for the multi-process autotune agent: export this
// process's profiled-lock counters into a shared-memory segment
// (ShmSegmentWriter) every 10ms from the control loop, and register the
// worker with the host agent over the control-plane socket.
//
// A worker that wants fleet-managed policies does three things:
//   1. serves its own control socket (RpcServer) so the agent can push
//      policy.attach / policy.detach,
//   2. runs a ShmExporter so the agent can observe its profiler, and
//   3. calls RegisterWithAgent(pid, shm path, socket path).
// Everything else — regime classification, canarying, promotion — happens in
// the agent (src/concord/agent/fleet.h).

#ifndef SRC_CONCORD_AGENT_WORKER_EXPORT_H_
#define SRC_CONCORD_AGENT_WORKER_EXPORT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/concord/agent/shm_segment.h"

namespace concord {

struct ShmExporterOptions {
  std::string shm_path;
  // Which locks to export: same selector grammar as the Concord facade
  // ("*", "class:<c>", exact name).
  std::string selector = "*";
  std::uint32_t capacity = kShmSegmentDefaultCapacity;
};

// Snapshots every profiled lock matching the selector and publishes the set
// into the segment. ExportOnce() is the synchronous unit (tests drive it
// directly); Start()/Stop() join and leave the control loop
// (src/concord/control_loop.h), which runs it every 10ms. The destructor
// leaves the loop.
class ShmExporter {
 public:
  static StatusOr<std::unique_ptr<ShmExporter>> Create(
      ShmExporterOptions options);
  ~ShmExporter();

  ShmExporter(const ShmExporter&) = delete;
  ShmExporter& operator=(const ShmExporter&) = delete;

  Status ExportOnce();
  void Start();
  void Stop();

  const std::string& shm_path() const { return writer_->path(); }

 private:
  explicit ShmExporter(ShmExporterOptions options,
                       std::unique_ptr<ShmSegmentWriter> writer);

  ShmExporterOptions options_;
  std::unique_ptr<ShmSegmentWriter> writer_;
};

// Registers this worker with the agent listening on `agent_socket`.
// Idempotent per pid: re-registering replaces the previous entry, so a
// worker restarted with the same pid namespace or retrying a timed-out
// registration is safe. Retries transport errors until `attempts` runs out
// (the worker typically races the agent's startup).
Status RegisterWithAgent(const std::string& agent_socket, std::uint64_t pid,
                         const std::string& shm_path,
                         const std::string& control_socket,
                         std::uint32_t attempts = 20,
                         std::uint64_t retry_delay_ms = 100);

// Deregisters; best-effort (a dead agent is not the worker's problem).
Status LeaveAgent(const std::string& agent_socket, std::uint64_t pid);

}  // namespace concord

#endif  // SRC_CONCORD_AGENT_WORKER_EXPORT_H_
