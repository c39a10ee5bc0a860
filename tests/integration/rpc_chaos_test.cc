// RpcChaos: the control-plane socket under hostile conditions. The contract
// being proven is the robustness story of docs/OPERATIONS.md — every rpc.*
// fault point armed at once, hanging clients, killed clients and connection
// floods must leave (a) every client call terminating with a clean result or
// error, (b) the server answering fresh requests afterwards, and (c) the
// lock data path making progress throughout, untouched by the control plane
// (bench/a12_rpc measures the p99 shift; here the evidence is counters, so
// it holds under any host load).

#include <gtest/gtest.h>

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/base/fault.h"
#include "src/base/time.h"
#include "src/concord/concord.h"
#include "src/concord/rpc/client.h"
#include "src/concord/rpc/server.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

void SleepMs(std::uint64_t ms) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1'000'000);
  nanosleep(&ts, nullptr);
}

class RpcChaosTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Concord::Global().ResetForTest();
#if CONCORD_FAULT_INJECTION
    FaultRegistry::Global().DisarmAll();
#endif
  }

  std::string SocketPath() const {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return "/tmp/concord_rpcchaos_" + std::to_string(getpid()) + "_" +
           info->name() + ".sock";
  }

  RpcClientOptions FastClientOptions() const {
    RpcClientOptions options;
    options.socket_path = SocketPath();
    options.timeout_ms = 1'000;
    options.max_attempts = 5;
    options.backoff_initial_ms = 2;
    options.backoff_max_ms = 20;
    return options;
  }

  // Raw connect for misbehaving-client roles.
  int RawConnect() {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    sockaddr_un addr;
    memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    const std::string path = SocketPath();
    memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      return -1;
    }
    return fd;
  }

  ShflLock lock_;
};

// Sleeps until pred or ~10s; returns whether pred held.
template <typename Pred>
bool Await(Pred pred) {
  const std::uint64_t deadline = MonotonicNowNs() + 10'000'000'000ull;
  while (!pred()) {
    if (MonotonicNowNs() > deadline) {
      return false;
    }
    SleepMs(1);
  }
  return true;
}

#if CONCORD_FAULT_INJECTION

TEST_F(RpcChaosTest, EveryRpcFaultArmedClientsAlwaysTerminate) {
  FaultRegistry& faults = FaultRegistry::Global();
  ASSERT_TRUE(faults.ArmFromDirective("rpc.accept=1in3:7"));
  ASSERT_TRUE(faults.ArmFromDirective("rpc.read=1in4:9"));
  ASSERT_TRUE(faults.ArmFromDirective("rpc.write=1in5:11"));
  ASSERT_TRUE(faults.ArmFromDirective("rpc.handler=1in3:13"));

  RpcServerOptions options;
  options.socket_path = SocketPath();
  options.read_timeout_ms = 300;
  RpcServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Under a ~1/3 accept-drop and random read/write/handler failures, retried
  // idempotent calls still terminate — many succeed, none hang, and a
  // failure is a classified status, never a crash.
  RpcClient client(FastClientOptions());
  int successes = 0;
  int clean_failures = 0;
  for (int i = 0; i < 60; ++i) {
    auto response = client.Call("status", "", /*idempotent=*/true);
    if (response.ok() && response->ok) {
      ++successes;
    } else {
      ++clean_failures;
      if (!response.ok()) {
        EXPECT_FALSE(response.status().ok());
      } else {
        // Server-side handler fault surfaces as the internal wire code.
        EXPECT_EQ(response->error_code, "internal");
      }
    }
  }
  EXPECT_GT(successes, 0) << "retries should ride out injected faults";
  EXPECT_GT(server.stats().faults_injected, 0u);

  // With faults disarmed the path is clean again — same server, no restart.
  faults.DisarmAll();
  auto healthy = client.Call("status", "", /*idempotent=*/true);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_TRUE(healthy->ok);

  server.Stop();
}

TEST_F(RpcChaosTest, FaultsCanBeArmedOverTheSocketItself) {
  RpcServerOptions options;
  options.socket_path = SocketPath();
  RpcServer server(options);
  ASSERT_TRUE(server.Start().ok());

  RpcClient client(FastClientOptions());
  auto armed = client.Call("faults.arm", R"({"directive":"rpc.handler=nth1"})",
                           /*idempotent=*/false);
  ASSERT_TRUE(armed.ok());
  ASSERT_TRUE(armed->ok) << armed->error_message;

  // Arming resets the point's counters, so the very next dispatched request
  // is evaluation 1 and hits the nth1 handler fault.
  auto hit = client.CallOnce("status", "");
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(hit->ok);
  EXPECT_EQ(hit->error_code, "internal");

  auto after = client.CallOnce("status", "");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->ok);

  server.Stop();
}

#endif  // CONCORD_FAULT_INJECTION

TEST_F(RpcChaosTest, HangingKilledAndGarbageClientsDontWedgeTheServer) {
  RpcServerOptions options;
  options.socket_path = SocketPath();
  options.workers = 2;
  options.read_timeout_ms = 150;
  RpcServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // A rogue's gallery: connect-and-hang, partial frame then hang, garbage,
  // and kill-mid-request.
  std::vector<int> hangers;
  for (int i = 0; i < 3; ++i) {
    const int fd = RawConnect();
    ASSERT_GE(fd, 0);
    hangers.push_back(fd);
  }
  const int partial = RawConnect();
  ASSERT_GE(partial, 0);
  (void)send(partial, "{\"method\":\"stat", 15, MSG_NOSIGNAL);
  const int garbage = RawConnect();
  ASSERT_GE(garbage, 0);
  (void)send(garbage, "\x00\xff\x13garbage\n", 11, MSG_NOSIGNAL);
  const int killed = RawConnect();
  ASSERT_GE(killed, 0);
  (void)send(killed, "{\"method\":\"status\"}", 19, MSG_NOSIGNAL);
  close(killed);  // dies before finishing the frame

  // Give the timeouts a chance to reap the hangers, then demand service.
  SleepMs(400);
  RpcClient client(FastClientOptions());
  auto response = client.Call("status", "", /*idempotent=*/true);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok) << response->error_code;

  for (const int fd : hangers) {
    close(fd);
  }
  close(partial);
  close(garbage);
  server.Stop();
}

TEST_F(RpcChaosTest, ConnectionFloodShedsAndRecovers) {
  RpcServerOptions options;
  options.socket_path = SocketPath();
  options.workers = 1;
  options.max_pending = 2;
  options.read_timeout_ms = 150;
  RpcServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Flood far past capacity from several threads at once. Every call must
  // terminate; outcomes are success, a retryable `busy` shed, or a transport
  // error from a connection the server dropped — never a hang.
  std::atomic<int> successes{0};
  std::atomic<int> sheds{0};
  std::atomic<int> transport_errors{0};
  std::vector<std::thread> flooders;
  for (int t = 0; t < 4; ++t) {
    flooders.emplace_back([&, t] {
      RpcClientOptions client_options = FastClientOptions();
      client_options.max_attempts = 1;  // raw pressure, no polite backoff
      client_options.jitter_seed = static_cast<std::uint64_t>(t + 1);
      RpcClient client(client_options);
      for (int i = 0; i < 25; ++i) {
        auto response = client.CallOnce("status", "");
        if (!response.ok()) {
          transport_errors.fetch_add(1);
        } else if (response->ok) {
          successes.fetch_add(1);
        } else if (response->error_code == "busy") {
          EXPECT_TRUE(response->retryable);
          sheds.fetch_add(1);
        }
      }
    });
  }
  for (auto& flooder : flooders) {
    flooder.join();
  }
  EXPECT_EQ(successes.load() + sheds.load() + transport_errors.load(), 100);
  EXPECT_GT(successes.load(), 0);

  // After the flood the server is healthy and the counters saw the shed.
  RpcClient client(FastClientOptions());
  auto response = client.Call("status", "", /*idempotent=*/true);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok);
  server.Stop();
}

TEST_F(RpcChaosTest, DataPathKeepsProgressUnderRpcChaos) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "hot", "demo");
  ASSERT_TRUE(concord.EnableProfiling(id).ok());
  const ShardedLockProfileStats* stats = concord.Stats(id);
  ASSERT_NE(stats, nullptr);
  constexpr int kThreads = 4;
  constexpr int kSlices = 4;
  constexpr std::uint64_t kSliceMs = 100;

  // Chaos: server up, every rpc.* fault armed, a status-polling client and a
  // misbehaving client hammering the socket the whole time.
  RpcServerOptions options;
  options.socket_path = SocketPath();
  options.read_timeout_ms = 100;
  RpcServer server(options);
  ASSERT_TRUE(server.Start().ok());
#if CONCORD_FAULT_INJECTION
  ASSERT_TRUE(FaultRegistry::Global().ArmFromDirective("rpc.accept=1in4:3"));
  ASSERT_TRUE(FaultRegistry::Global().ArmFromDirective("rpc.read=1in4:5"));
  ASSERT_TRUE(FaultRegistry::Global().ArmFromDirective("rpc.write=1in4:7"));
  ASSERT_TRUE(FaultRegistry::Global().ArmFromDirective("rpc.handler=1in4:9"));
#endif

  std::atomic<bool> stop_clients{false};
  std::thread poller([&] {
    RpcClient client(FastClientOptions());
    while (!stop_clients.load(std::memory_order_relaxed)) {
      (void)client.CallOnce("status", "");
      SleepMs(5);
    }
  });
  std::thread misbehaver([&] {
    while (!stop_clients.load(std::memory_order_relaxed)) {
      const int fd = RawConnect();
      if (fd >= 0) {
        (void)send(fd, "][[[not a frame\n", 16, MSG_NOSIGNAL);
        close(fd);
      }
      SleepMs(3);
    }
  });

  // The data path, with each worker counting its own acquisitions.
  const std::uint64_t lock_before = lock_.acquisitions();
  const std::uint64_t profiled_before = stats->Acquisitions();
  std::atomic<bool> stop_workers{false};
  std::atomic<std::uint64_t> done[kThreads] = {};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!stop_workers.load(std::memory_order_relaxed)) {
        lock_.Lock();
        BurnNs(1'000);
        lock_.Unlock();
        done[t].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Every worker advances in every slice of the chaos window. A slice lasts
  // kSliceMs, stretched (up to Await's deadline) until each worker has moved
  // on, so a slow host passes and only a stalled worker fails.
  for (int slice = 0; slice < kSlices; ++slice) {
    std::uint64_t at_start[kThreads];
    for (int t = 0; t < kThreads; ++t) {
      at_start[t] = done[t].load();
    }
    SleepMs(kSliceMs);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(Await([&] { return done[t].load() > at_start[t]; }))
          << "worker " << t << " stalled in slice " << slice;
    }
  }
  stop_workers.store(true);
  for (auto& worker : workers) {
    worker.join();
  }
  stop_clients.store(true);
  poller.join();
  misbehaver.join();
  server.Stop();

  // Only the workers took the lock (no control-plane path touched it), and
  // the profiler saw every acquisition.
  std::uint64_t worker_total = 0;
  for (const auto& count : done) {
    worker_total += count.load();
  }
  const std::uint64_t lock_delta = lock_.acquisitions() - lock_before;
  EXPECT_EQ(lock_delta, worker_total);
  EXPECT_EQ(stats->Acquisitions() - profiled_before, lock_delta);

  (void)concord.Unregister(id);
}

}  // namespace
}  // namespace concord
