#include "src/concord/agent/worker_export.h"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/json.h"
#include "src/base/time.h"
#include "src/concord/concord.h"
#include "src/concord/control_loop.h"
#include "src/concord/rpc/client.h"

namespace concord {

ShmExporter::ShmExporter(ShmExporterOptions options,
                         std::unique_ptr<ShmSegmentWriter> writer)
    : options_(std::move(options)), writer_(std::move(writer)) {}

ShmExporter::~ShmExporter() { Stop(); }

StatusOr<std::unique_ptr<ShmExporter>> ShmExporter::Create(
    ShmExporterOptions options) {
  auto writer = ShmSegmentWriter::Create(options.shm_path, options.capacity);
  CONCORD_RETURN_IF_ERROR(writer.status());
  return std::unique_ptr<ShmExporter>(
      new ShmExporter(std::move(options), std::move(writer.value())));
}

Status ShmExporter::ExportOnce() {
  Concord& concord = Concord::Global();
  std::vector<ShmLockSample> samples;
  for (const Concord::LockInfo& info : concord.ListLocks(options_.selector)) {
    if (!info.profiling) {
      continue;
    }
    const ShardedLockProfileStats* stats = concord.Stats(info.lock_id);
    if (stats == nullptr) {
      continue;
    }
    ShmLockSample sample;
    sample.lock_id = info.lock_id;
    sample.name = info.name;
    sample.snapshot = stats->Snapshot();
    samples.push_back(std::move(sample));
  }
  return writer_->Publish(samples, ClockNowNs());
}

void ShmExporter::Start() { ControlLoop::Global().Join(this); }

void ShmExporter::Stop() { ControlLoop::Global().Leave(this); }

namespace {

std::string RegisterParamsJson(std::uint64_t pid, const std::string& shm_path,
                               const std::string& control_socket) {
  JsonWriter writer;
  writer.BeginObject();
  writer.NumberField("pid", pid);
  writer.Field("shm", shm_path);
  writer.Field("socket", control_socket);
  writer.EndObject();
  return writer.TakeString();
}

}  // namespace

Status RegisterWithAgent(const std::string& agent_socket, std::uint64_t pid,
                         const std::string& shm_path,
                         const std::string& control_socket,
                         std::uint32_t attempts,
                         std::uint64_t retry_delay_ms) {
  RpcClientOptions options;
  options.socket_path = agent_socket;
  options.max_attempts = 1;
  RpcClient client(options);
  const std::string params = RegisterParamsJson(pid, shm_path, control_socket);
  Status last = InternalError("agent registration never attempted");
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(retry_delay_ms));
    }
    // agent.register mutates agent state but is idempotent per pid (the
    // agent replaces any existing entry), so the worker may retry freely
    // while the agent is still coming up.
    auto response = client.CallOnce("agent.register", params);
    if (!response.ok()) {
      last = response.status();
      continue;
    }
    if (!response->ok) {
      return InternalError("agent.register rejected: " +
                           response->error_message);
    }
    return Status::Ok();
  }
  return last;
}

Status LeaveAgent(const std::string& agent_socket, std::uint64_t pid) {
  RpcClientOptions options;
  options.socket_path = agent_socket;
  options.max_attempts = 1;
  RpcClient client(options);
  JsonWriter writer;
  writer.BeginObject();
  writer.NumberField("pid", pid);
  writer.EndObject();
  auto response = client.CallOnce("agent.leave", writer.TakeString());
  if (!response.ok()) {
    return response.status();
  }
  if (!response->ok) {
    return InternalError("agent.leave rejected: " + response->error_message);
  }
  return Status::Ok();
}

}  // namespace concord
