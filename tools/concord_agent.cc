// concord_agent: the host-level multi-process autotune agent daemon
// (docs/OPERATIONS.md §multi-process deployment).
//
// Runs a FleetAgent (src/concord/agent/fleet.h) behind a control-plane RPC
// socket. Workers register over that socket (agent.register), the agent
// samples their shared-memory profiler segments, merges the fleet-wide
// windows, and pushes winning policies back through each worker's own
// certifier-gated policy.attach verb. `agent.status` against the same socket
// (e.g. `concordctl --socket ... agent.status`) renders the live fleet view.
//
//   concord_agent --socket PATH [--window-ms N] [--policy-dir DIR] [--ms N]
//
//   --socket PATH      unix socket to serve (required)
//   --window-ms N      merged sampling window (default 100)
//   --policy-dir DIR   seed fleet candidates from every .casm in DIR
//   --ms N             run for N ms then exit (default: until SIGINT/SIGTERM)
//
// Prints the final agent status JSON on stdout at shutdown.

#include <signal.h>
#include <time.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/base/time.h"
#include "src/concord/agent/fleet.h"
#include "src/concord/rpc/server.h"

namespace concord {
namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

struct Options {
  std::string socket;
  std::string policy_dir;
  int window_ms = 100;
  int ms = 0;  // 0 = run until signalled
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--window-ms N] [--policy-dir DIR] "
               "[--ms N]\n",
               argv0);
  return 2;
}

bool ParseOptions(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--socket" && has_value) {
      opts.socket = argv[++i];
    } else if (arg == "--policy-dir" && has_value) {
      opts.policy_dir = argv[++i];
    } else if (arg == "--window-ms" && has_value) {
      opts.window_ms = std::atoi(argv[++i]);
    } else if (arg == "--ms" && has_value) {
      opts.ms = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (opts.socket.empty() || opts.window_ms < 1 || opts.ms < 0) {
    return false;
  }
  return true;
}

int Run(const Options& opts) {
  FleetAgent& agent = FleetAgent::Global();

  FleetAgentConfig config;
  config.window_ns = static_cast<std::uint64_t>(opts.window_ms) * 1'000'000ull;
  config.policy_dir = opts.policy_dir;
  const Status configured = agent.Configure(config);
  if (!configured.ok()) {
    std::fprintf(stderr, "concord_agent: configure: %s\n",
                 configured.ToString().c_str());
    return 1;
  }
  if (!opts.policy_dir.empty() && agent.registry().Empty()) {
    std::fprintf(stderr,
                 "concord_agent: warning: no admissible .casm candidates "
                 "under %s — the fleet can only run plain\n",
                 opts.policy_dir.c_str());
  }

  RpcServerOptions server_options;
  server_options.socket_path = opts.socket;
  RpcServer server(server_options);
  const Status served = server.Start();
  if (!served.ok()) {
    std::fprintf(stderr, "concord_agent: cannot serve on %s: %s\n",
                 opts.socket.c_str(), served.ToString().c_str());
    return 1;
  }

  agent.Start();

  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);
  std::fprintf(stderr, "concord_agent: serving on %s (window %dms)\n",
               opts.socket.c_str(), opts.window_ms);

  const std::uint64_t deadline_ns =
      opts.ms > 0
          ? MonotonicNowNs() + static_cast<std::uint64_t>(opts.ms) * 1'000'000ull
          : 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    if (deadline_ns != 0 && MonotonicNowNs() >= deadline_ns) {
      break;
    }
    timespec ts{0, 20'000'000};  // 20ms
    nanosleep(&ts, nullptr);
  }

  agent.Stop();
  server.Stop();
  std::printf("%s\n", agent.StatusJson().c_str());
  return 0;
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
