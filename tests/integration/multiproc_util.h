// Cross-process harness glue for the multi-process fleet-agent tests.
//
// The multiproc test binary is its own worker image: main() checks
// CONCORD_MP_WORKER before InitGoogleTest and, when set, runs
// RunWorkerMain() instead of the test suite. SpawnWorker() re-execs
// /proc/self/exe with the worker env vars set, so every worker is a real
// forked process with its own Concord facade, profiler, control-plane
// socket, and shm exporter — no test state is shared across the fork.
//
// The worker's load is synthetic but steered by its *real* attachment
// state, which is what makes fleet convergence observable end-to-end:
//
//   no policy attached            -> pathological windows, 4ms waits
//   fleet policy attached         -> same contention shape, 500us waits
//   attached + degrade file exists -> 64ms waits (a policy that certifies
//                                     clean but is catastrophic in
//                                     production — the rollback trigger)
//
// Alongside the steered lock the worker runs a real kernelsim
// GlobalLockHashTable workload on a second profiled lock, so the exported
// segments always carry more than one lock name and the agent's per-name
// merge is exercised by genuinely uncontended traffic too.

#ifndef TESTS_INTEGRATION_MULTIPROC_UTIL_H_
#define TESTS_INTEGRATION_MULTIPROC_UTIL_H_

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/base/json.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/concord/agent/worker_export.h"
#include "src/concord/concord.h"
#include "src/concord/rpc/client.h"
#include "src/concord/rpc/server.h"
#include "src/kernelsim/hashtable.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace multiproc {

// Worker-mode environment contract (set by SpawnWorker, read by main()).
inline constexpr char kEnvWorker[] = "CONCORD_MP_WORKER";
inline constexpr char kEnvShm[] = "CONCORD_MP_SHM";
inline constexpr char kEnvSocket[] = "CONCORD_MP_SOCKET";
inline constexpr char kEnvAgent[] = "CONCORD_MP_AGENT";
inline constexpr char kEnvDegrade[] = "CONCORD_MP_DEGRADE";
inline constexpr char kEnvSeed[] = "CONCORD_MP_SEED";

// The steered lock every worker profiles (the fleet key the tests assert
// on) and the kernelsim-workload lock that rides along.
inline constexpr char kHotLockName[] = "mp_hot";
inline constexpr char kTableLockName[] = "mp_table";

// Wait-time steering (see file comment). The plain/improved gap is 8x so
// the canary verdict clears the promote margin even if the first canary
// window mixes in a few pre-attachment samples; the degraded value is 16x
// *worse* than plain so a regression can never score as noise.
inline constexpr std::uint64_t kPlainWaitNs = 4'000'000;
inline constexpr std::uint64_t kDegradedWaitNs = 64'000'000;
inline constexpr std::uint64_t kImprovedWaitNs = 500'000;

// Workers self-destruct after this long even if the parent dies without
// delivering SIGTERM, so a crashed test run cannot leak spinning processes.
inline constexpr std::chrono::seconds kWorkerSelfDestruct{120};

inline volatile std::sig_atomic_t g_worker_stop = 0;
inline void WorkerStopHandler(int) { g_worker_stop = 1; }

inline bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// The forked worker's whole life: profile two locks, serve a control
// socket, export to shm, register with the agent, then pump steered
// windows until told to stop. Exit codes: 2 = setup failure, 3 = could not
// register with the agent.
inline int RunWorkerMain() {
  const char* shm = std::getenv(kEnvShm);
  const char* socket = std::getenv(kEnvSocket);
  const char* agent = std::getenv(kEnvAgent);
  const char* degrade = std::getenv(kEnvDegrade);
  const char* seed_text = std::getenv(kEnvSeed);
  if (shm == nullptr || socket == nullptr || agent == nullptr) {
    std::fprintf(stderr, "multiproc worker: missing CONCORD_MP_* env\n");
    return 2;
  }
  std::signal(SIGTERM, WorkerStopHandler);
  std::signal(SIGINT, WorkerStopHandler);

  Concord& concord = Concord::Global();
  static ShflLock hot_lock;
  const std::uint64_t hot_id =
      concord.RegisterShflLock(hot_lock, kHotLockName, "mp");
  if (!concord.EnableProfiling(hot_id).ok()) {
    return 2;
  }
  GlobalLockHashTable<ShflLock> table(/*bucket_bits=*/8);
  const std::uint64_t table_id =
      concord.RegisterShflLock(table.global_lock(), kTableLockName, "mp");
  if (!concord.EnableProfiling(table_id).ok()) {
    return 2;
  }

  RpcServerOptions server_options;
  server_options.socket_path = socket;
  RpcServer server(server_options);
  if (!server.Start().ok()) {
    return 2;
  }

  ShmExporterOptions exporter_options;
  exporter_options.shm_path = shm;
  auto exporter = ShmExporter::Create(exporter_options);
  if (!exporter.ok()) {
    server.Stop();
    return 2;
  }
  (*exporter)->Start();

  const Status registered = RegisterWithAgent(
      agent, static_cast<std::uint64_t>(getpid()), shm, socket);
  if (!registered.ok()) {
    std::fprintf(stderr, "multiproc worker: register failed: %s\n",
                 registered.ToString().c_str());
    (*exporter)->Stop();
    server.Stop();
    return 3;
  }

  Xoshiro256 rng(seed_text != nullptr
                     ? std::strtoull(seed_text, nullptr, 10)
                     : 1);
  LockProfileStats& shard = concord.MutableStats(hot_id)->ControlShard();
  const auto deadline = std::chrono::steady_clock::now() + kWorkerSelfDestruct;
  while (g_worker_stop == 0 && std::chrono::steady_clock::now() < deadline) {
    // One synthetic pathological window slice on mp_hot, wait times steered
    // by what the agent actually attached to *this process*.
    std::uint64_t wait_ns = kPlainWaitNs;
    if (!concord.AttachedPolicyName(hot_id).empty()) {
      wait_ns = (degrade != nullptr && FileExists(degrade)) ? kDegradedWaitNs
                                                            : kImprovedWaitNs;
    }
    shard.acquisitions.fetch_add(100, std::memory_order_relaxed);
    shard.contentions.fetch_add(96, std::memory_order_relaxed);
    for (int i = 0; i < 96; ++i) {
      shard.wait_ns.Record(wait_ns);
    }
    // Real (uncontended) kernelsim traffic on mp_table.
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t key = rng.NextBounded(512);
      table.Insert(key, key * 2);
      std::uint64_t value = 0;
      table.Lookup(key, &value);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  LeaveAgent(agent, static_cast<std::uint64_t>(getpid()));
  (*exporter)->Stop();
  server.Stop();
  return 0;
}

struct WorkerSpec {
  std::string shm_path;
  std::string control_socket;
  std::string agent_socket;
  std::string degrade_path;  // "" = no degrade trigger
  std::uint64_t seed = 1;
};

// fork + re-exec this binary in worker mode. Returns the child pid (or -1).
inline pid_t SpawnWorker(const WorkerSpec& spec) {
  const pid_t pid = ::fork();
  if (pid != 0) {
    return pid;
  }
  ::setenv(kEnvWorker, "1", 1);
  ::setenv(kEnvShm, spec.shm_path.c_str(), 1);
  ::setenv(kEnvSocket, spec.control_socket.c_str(), 1);
  ::setenv(kEnvAgent, spec.agent_socket.c_str(), 1);
  if (!spec.degrade_path.empty()) {
    ::setenv(kEnvDegrade, spec.degrade_path.c_str(), 1);
  }
  ::setenv(kEnvSeed, std::to_string(spec.seed).c_str(), 1);
  ::execl("/proc/self/exe", "multiproc_worker", static_cast<char*>(nullptr));
  ::_exit(127);
}

// Asks a worker (over its own control socket) which policy it holds on
// `lock_name`; "" when nothing is attached.
inline StatusOr<std::string> QueryAttachedPolicy(
    const std::string& control_socket, const std::string& lock_name) {
  RpcClientOptions options;
  options.socket_path = control_socket;
  options.timeout_ms = 2'000;
  RpcClient client(options);
  auto response = client.Call("status", "", /*idempotent=*/true);
  if (!response.ok()) {
    return response.status();
  }
  if (!response->ok) {
    return InternalError("worker status rejected: " + response->error_message);
  }
  auto doc = ParseJson(response->result);
  if (!doc.ok()) {
    return doc.status();
  }
  const JsonValue* locks = doc->Find("locks");
  if (locks == nullptr || !locks->IsArray()) {
    return InternalError("worker status: no locks array");
  }
  for (const JsonValue& lock : locks->array) {
    const JsonValue* name = lock.Find("name");
    if (name == nullptr || !name->IsString() ||
        name->string_value != lock_name) {
      continue;
    }
    const JsonValue* policy = lock.Find("policy");
    if (policy != nullptr && policy->IsString()) {
      return policy->string_value;
    }
    return std::string();
  }
  return NotFoundError("lock not in worker status: " + lock_name);
}

}  // namespace multiproc
}  // namespace concord

#endif  // TESTS_INTEGRATION_MULTIPROC_UTIL_H_
