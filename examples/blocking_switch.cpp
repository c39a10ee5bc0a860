// Unifying locking designs by switching regimes on the fly (§3.1.1(iii)).
//
// The Btrfs pattern the paper describes: a non-blocking lock plus hand-rolled
// wait-event code for the cases that should sleep. C3's answer is to make
// blocking-ness itself a policy: the same ShflLock runs as an rwlock-style
// spinner during short-CS phases and as an rwsem-style sleeper during long-CS
// phases, switched live: the lock's blocking regime plus an attached,
// tunable adaptive-parking policy.
//
//   build/examples/blocking_switch

#include <atomic>
#include <cstdio>
#include <thread>
#include <time.h>
#include <vector>

#include "src/base/time.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/sync/shfllock.h"

using namespace concord;

namespace {

ShflLock g_lock;
std::atomic<std::uint64_t> g_ops{0};
std::atomic<std::uint64_t> g_cs_ns{500};  // live-tunable critical section

void SleepMs(long ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1'000'000};
  nanosleep(&ts, nullptr);
}

struct PhaseStats {
  double ops_per_ms;
  std::uint64_t parks;
};

PhaseStats RunPhase(std::uint64_t ms) {
  const std::uint64_t ops_before = g_ops.load();
  const std::uint64_t parks_before = g_lock.parks();
  SleepMs(static_cast<long>(ms));
  return {static_cast<double>(g_ops.load() - ops_before) / static_cast<double>(ms),
          g_lock.parks() - parks_before};
}

}  // namespace

int main() {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(g_lock, "extent_lock", "fs");

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ShflGuard guard(g_lock);
        BurnNs(g_cs_ns.load(std::memory_order_relaxed));
        g_ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::printf("%-42s %12s %10s\n", "phase", "ops/msec", "parks");

  // Phase 1: short critical sections, spin regime (stock behaviour).
  {
    const PhaseStats stats = RunPhase(300);
    std::printf("%-42s %12.1f %10llu\n", "short CS, spin regime (rwlock-like)",
                stats.ops_per_ms, static_cast<unsigned long long>(stats.parks));
  }

  // Phase 2: the workload shifts to long critical sections. Spinning now
  // burns cycles other threads need; switch the same lock into its blocking
  // (rwsem) regime and attach a policy with an aggressive park threshold.
  g_cs_ns.store(200'000);  // 200us holds
  {
    auto parking = MakeAdaptiveParkingPolicy();
    CONCORD_CHECK(parking.ok());
    CONCORD_CHECK(parking->SetKnob(0, 64).ok());  // park after 64 spins
    g_lock.SetBlocking(true);
    CONCORD_CHECK(concord.Attach(id, std::move(parking->spec)).ok());
    const PhaseStats stats = RunPhase(300);
    std::printf("%-42s %12.1f %10llu\n",
                "long CS, blocking regime (rwsem-like)", stats.ops_per_ms,
                static_cast<unsigned long long>(stats.parks));
  }

  // Phase 3: back to short sections; detach and revert to spinning — the
  // ad-hoc wait-event code Btrfs would carry simply does not exist here.
  g_cs_ns.store(500);
  {
    CONCORD_CHECK(concord.Detach(id).ok());
    g_lock.SetBlocking(false);
    const PhaseStats stats = RunPhase(300);
    std::printf("%-42s %12.1f %10llu\n", "short CS again, spin regime",
                stats.ops_per_ms, static_cast<unsigned long long>(stats.parks));
  }

  stop.store(true);
  for (auto& worker : workers) {
    worker.join();
  }
  CONCORD_CHECK(concord.Unregister(id).ok());
  std::printf("\none lock, three regimes, zero recompiles.\n");
  return 0;
}
