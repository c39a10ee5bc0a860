// concord_prof: the observability layer's CLI.
//
// The repo is a userspace reproduction, so there is no foreign process to
// attach to; the tool drives a contended demo workload (N ShflLocks, skewed
// so lock 0 is hot) through the Concord facade with profiling enabled (and
// the flight recorder, in trace mode), then renders what the observability
// layer saw:
//
//   concord_prof top    [--locks N] [--threads N] [--ms N]
//       top-style most-contended-locks table from the profiler's snapshots
//       (sorted by total wait time)
//   concord_prof trace  [--locks N] [--threads N] [--ms N] [--out FILE]
//       record and write a Chrome trace-event file (load in Perfetto or
//       chrome://tracing); defaults to concord_trace.json
//   concord_prof stats  [--locks N] [--threads N] [--ms N]
//       per-lock stats JSON (Concord::StatsJson) on stdout
//   concord_prof autotune [--locks N] [--threads N] [--ms N]
//       run the workload under the adaptive policy controller (threads
//       spread over virtual sockets so the hot lock shows NUMA skew) and
//       print AutotuneStatusJson: per-lock regime, incumbent policy and the
//       controller's event log
//   concord_prof status --socket PATH
//       fetch the `status` verb from a running control-plane RPC server
//       (docs/OPERATIONS.md) and print the result; exits nonzero with a
//       clear stderr message on connect or parse failure
//
// Any workload mode additionally accepts --serve PATH to expose the
// control-plane RPC server on that unix socket for the duration of the run,
// so an operator (or the CI smoke job) can drive concordctl against a live
// workload.
//
// Multi-process deployment (docs/OPERATIONS.md §multi-process): --shm PATH
// exports the profiler into a shared-memory segment, and --agent SOCKET
// additionally registers this process with a concord_agent daemon so the
// fleet agent can observe it and push policies back through --serve. --agent
// requires both --shm and --serve.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/base/time.h"
#include "src/concord/agent/worker_export.h"
#include "src/concord/autotune/controller.h"
#include "src/concord/concord.h"
#include "src/concord/rpc/client.h"
#include "src/concord/rpc/server.h"
#include "src/sync/shfllock.h"
#include "src/topology/thread_context.h"
#include "src/topology/topology.h"

namespace concord {
namespace {

struct Options {
  std::string mode;
  int locks = 4;
  int threads = 4;
  int ms = 200;
  std::string out = "concord_trace.json";
  std::string socket;  // status mode: RPC socket to query
  std::string serve;   // workload modes: expose the RPC server here
  std::string shm;     // workload modes: export profiler to this segment
  std::string agent;   // workload modes: register with this agent socket
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <top|trace|stats|autotune> [--locks N] [--threads N] "
               "[--ms N] [--out FILE] [--serve SOCKET] [--shm PATH] "
               "[--agent SOCKET]\n"
               "       %s status --socket SOCKET\n",
               argv0, argv0);
  return 2;
}

bool ParseOptions(int argc, char** argv, Options& opts) {
  if (argc < 2) {
    return false;
  }
  opts.mode = argv[1];
  if (opts.mode != "top" && opts.mode != "trace" && opts.mode != "stats" &&
      opts.mode != "autotune" && opts.mode != "status") {
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--locks" && has_value) {
      opts.locks = std::atoi(argv[++i]);
    } else if (arg == "--threads" && has_value) {
      opts.threads = std::atoi(argv[++i]);
    } else if (arg == "--ms" && has_value) {
      opts.ms = std::atoi(argv[++i]);
    } else if (arg == "--out" && has_value) {
      opts.out = argv[++i];
    } else if (arg == "--socket" && has_value) {
      opts.socket = argv[++i];
    } else if (arg == "--serve" && has_value) {
      opts.serve = argv[++i];
    } else if (arg == "--shm" && has_value) {
      opts.shm = argv[++i];
    } else if (arg == "--agent" && has_value) {
      opts.agent = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (opts.mode == "status") {
    if (opts.socket.empty()) {
      std::fprintf(stderr, "status mode requires --socket PATH\n");
      return false;
    }
    return true;
  }
  if (opts.locks < 1 || opts.locks > 64 || opts.threads < 1 ||
      opts.threads > 256 || opts.ms < 1) {
    std::fprintf(stderr, "flag out of range\n");
    return false;
  }
  if (!opts.agent.empty() && (opts.shm.empty() || opts.serve.empty())) {
    std::fprintf(stderr, "--agent requires --shm and --serve\n");
    return false;
  }
  return true;
}

// status mode: one read-only RPC against a live server. Every failure mode —
// no socket, connect refused, deadline, garbled reply — exits nonzero with a
// message naming the stage, never 0 with partial output.
int RunStatusClient(const Options& opts) {
  RpcClientOptions client_options;
  client_options.socket_path = opts.socket;
  RpcClient client(client_options);
  auto response = client.Call("status", "", /*idempotent=*/true);
  if (!response.ok()) {
    std::fprintf(stderr, "concord_prof: status query failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  if (!response->ok) {
    std::fprintf(stderr, "concord_prof: server error: %s: %s\n",
                 response->error_code.c_str(),
                 response->error_message.c_str());
    return 1;
  }
  std::printf("%s\n", response->result.c_str());
  return 0;
}

// Lock 0 is the hot one.
std::string DemoLockName(int index) {
  return index == 0 ? "hot" : "cold" + std::to_string(index);
}

// Runs the demo workload: every thread loops over the locks with a skew that
// makes lock 0 by far the hottest, holding each lock briefly.
void RunWorkload(std::vector<ShflLock>& locks, const Options& opts) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  const std::uint32_t cores_per_socket =
      MachineTopology::Global().config().cores_per_socket;
  for (int t = 0; t < opts.threads; ++t) {
    workers.emplace_back([&, t] {
      if (opts.mode == "autotune") {
        // Alternate threads between two virtual sockets so the hot lock's
        // contended handoffs cross sockets — the NUMA-skew signal.
        const std::uint32_t vcpu =
            static_cast<std::uint32_t>(t % 2) * cores_per_socket +
            static_cast<std::uint32_t>(t / 2) % cores_per_socket;
        ThreadRegistry::Global().RegisterCurrent(vcpu);
      }
      std::uint64_t n = static_cast<std::uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        // 2-in-3 iterations hit lock 0; the rest spread over the others.
        n = n * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t victim =
            (n % 3 != 0 || locks.size() == 1) ? 0 : 1 + (n >> 8) % (locks.size() - 1);
        locks[victim].Lock();
        BurnNs(victim == 0 ? 2'000 : 500);
        locks[victim].Unlock();
      }
    });
  }
  const std::uint64_t deadline =
      MonotonicNowNs() + static_cast<std::uint64_t>(opts.ms) * 1'000'000ull;
  while (MonotonicNowNs() < deadline) {
    timespec ts{0, 5'000'000};
    nanosleep(&ts, nullptr);
  }
  stop.store(true);
  for (auto& worker : workers) {
    worker.join();
  }
}

int Run(const Options& opts) {
  if (opts.mode == "status") {
    return RunStatusClient(opts);
  }

  Concord& concord = Concord::Global();

  RpcServerOptions server_options;
  server_options.socket_path = opts.serve;
  RpcServer rpc_server(server_options);
  if (!opts.serve.empty()) {
    const Status started = rpc_server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "concord_prof: cannot serve RPC on %s: %s\n",
                   opts.serve.c_str(), started.ToString().c_str());
      return 1;
    }
  }

  std::vector<ShflLock> locks(static_cast<std::size_t>(opts.locks));
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < opts.locks; ++i) {
    const std::uint64_t id = concord.RegisterShflLock(
        locks[static_cast<std::size_t>(i)], DemoLockName(i), "demo");
    if (!concord.EnableProfiling(id).ok()) {
      std::fprintf(stderr, "EnableProfiling(%llu) failed\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
    if (opts.mode == "trace") {
      const Status traced = concord.EnableTracing(id);
      if (!traced.ok()) {
        std::fprintf(stderr, "EnableTracing: %s\n", traced.ToString().c_str());
        return 1;
      }
    }
    ids.push_back(id);
  }

  // Multi-process deployment: export the profiler over shared memory and
  // (optionally) hand this worker to a fleet agent.
  std::unique_ptr<ShmExporter> exporter;
  if (!opts.shm.empty()) {
    ShmExporterOptions exporter_options;
    exporter_options.shm_path = opts.shm;
    auto created = ShmExporter::Create(exporter_options);
    if (!created.ok()) {
      std::fprintf(stderr, "concord_prof: shm export on %s: %s\n",
                   opts.shm.c_str(), created.status().ToString().c_str());
      return 1;
    }
    exporter = std::move(*created);
    exporter->Start();
  }
  if (!opts.agent.empty()) {
    const Status registered = RegisterWithAgent(
        opts.agent, static_cast<std::uint64_t>(getpid()), opts.shm, opts.serve);
    if (!registered.ok()) {
      std::fprintf(stderr, "concord_prof: agent registration on %s: %s\n",
                   opts.agent.c_str(), registered.ToString().c_str());
      return 1;
    }
  }

  if (opts.mode == "autotune") {
    AutotuneConfig config;
    // Sized so a short demo run still sees several decision windows.
    config.window_ns = static_cast<std::uint64_t>(opts.ms) * 1'000'000ull / 20;
    if (config.window_ns < 1'000'000ull) {
      config.window_ns = 1'000'000ull;
    }
    config.canary.min_window_acquisitions = 16;
    const Status enabled = concord.EnableAutotune("class:demo", config);
    if (!enabled.ok()) {
      std::fprintf(stderr, "EnableAutotune: %s\n", enabled.ToString().c_str());
      return 1;
    }
  }

  RunWorkload(locks, opts);

  int rc = 0;
  if (opts.mode == "top") {
    // Counts are exact. Wait and hold come from the sampled histograms, so a
    // total scales by timed_one_in; a max is a sampled acquisition's.
    struct Row {
      int index = 0;
      LockProfileSnapshot snapshot;
      std::uint64_t wait_total_ns = 0;
    };
    std::vector<Row> rows;
    for (int i = 0; i < opts.locks; ++i) {
      const ShardedLockProfileStats* stats =
          concord.Stats(ids[static_cast<std::size_t>(i)]);
      if (stats == nullptr) {
        continue;
      }
      Row row{i, stats->Snapshot()};
      row.wait_total_ns =
          row.snapshot.wait_ns.Sum() * row.snapshot.timed_one_in;
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return a.wait_total_ns > b.wait_total_ns;
    });
    std::printf("%-10s %-8s %10s %10s %12s %12s %12s %8s\n", "lock", "id",
                "acquires", "contended", "wait_total", "wait_max", "hold_total",
                "parks");
    for (const Row& row : rows) {
      const LockProfileSnapshot& s = row.snapshot;
      std::printf("%-10s %-8llu %10llu %10llu %10lluus %10lluus %10lluus %8llu\n",
                  DemoLockName(row.index).c_str(),
                  static_cast<unsigned long long>(
                      ids[static_cast<std::size_t>(row.index)]),
                  static_cast<unsigned long long>(s.acquisitions),
                  static_cast<unsigned long long>(s.contentions),
                  static_cast<unsigned long long>(row.wait_total_ns / 1000),
                  static_cast<unsigned long long>(s.wait_ns.Max() / 1000),
                  static_cast<unsigned long long>(
                      s.hold_ns.Sum() * s.timed_one_in / 1000),
                  static_cast<unsigned long long>(
                      locks[static_cast<std::size_t>(row.index)].parks()));
    }
  } else if (opts.mode == "trace") {
    const std::string json = concord.TraceChromeJson();
    std::FILE* file = std::fopen(opts.out.c_str(), "w");
    if (file == nullptr ||
        std::fwrite(json.data(), 1, json.size(), file) != json.size()) {
      std::fprintf(stderr, "cannot write %s\n", opts.out.c_str());
      rc = 1;
    } else {
      std::printf("wrote %s (%zu bytes) — load it in Perfetto or "
                  "chrome://tracing\n",
                  opts.out.c_str(), json.size());
    }
    if (file != nullptr) {
      std::fclose(file);
    }
  } else if (opts.mode == "autotune") {
    (void)concord.DisableAutotune();
    std::printf("%s\n", concord.AutotuneStatusJson().c_str());
  } else {  // stats
    std::printf("%s\n", concord.StatsJson("*").c_str());
  }

  if (!opts.agent.empty()) {
    (void)LeaveAgent(opts.agent, static_cast<std::uint64_t>(getpid()));
  }
  if (exporter != nullptr) {
    exporter->Stop();
  }
  for (const std::uint64_t id : ids) {
    (void)concord.DisableTracing(id);
    (void)concord.Unregister(id);
  }
  return rc;
}

}  // namespace
}  // namespace concord

int main(int argc, char** argv) {
  concord::Options opts;
  if (!concord::ParseOptions(argc, argv, opts)) {
    return concord::Usage(argv[0]);
  }
  return concord::Run(opts);
}
