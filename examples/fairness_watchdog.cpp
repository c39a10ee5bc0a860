// Safety in depth (§4.2/§6): the verifier proves a policy is memory-safe and
// terminating, but a *verified* policy can still be unfair. This example
// attaches a deliberately unfair policy — "boost everyone from socket 0" on
// a machine where one victim thread sits on socket 7 — and lets the fairness
// watchdog catch the starvation. Containment takes the policy off the lock
// (stock FIFO) and, after its backoff, re-attaches it on probation. Nothing
// here polls: the process's control loop runs the watchdog and containment.
//
//   build/examples/fairness_watchdog

#include <atomic>
#include <cstdio>
#include <thread>
#include <time.h>
#include <vector>

#include "src/base/time.h"
#include "src/bpf/assembler.h"
#include "src/concord/concord.h"
#include "src/concord/containment.h"
#include "src/concord/safety.h"
#include "src/sync/shfllock.h"
#include "src/topology/thread_context.h"

using namespace concord;

namespace {

ShflLock g_lock;

void SleepMs(long ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1'000'000};
  nanosleep(&ts, nullptr);
}

}  // namespace

int main() {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(g_lock, "victim_lock", "demo");

  // The unfair policy: boost any waiter from socket 0, starving others.
  const char* kSocketZeroFirst = R"(
      ldxw r2, [r1+56]   ; curr.socket
      jeq  r2, 0, yes
      mov  r0, 0
      exit
    yes:
      mov  r0, 1
      exit
  )";
  auto program = AssembleProgram("socket_zero_first", kSocketZeroFirst,
                                 &DescriptorFor(HookKind::kCmpNode));
  CONCORD_CHECK(program.ok());
  PolicySpec spec;
  spec.name = "unfair_socket_preference";
  CONCORD_CHECK(spec.AddProgram(HookKind::kCmpNode, std::move(*program)).ok());
  CONCORD_CHECK(concord.Attach(id, std::move(spec)).ok());
  std::printf("attached '%s' (verified: memory-safe, terminating, UNFAIR)\n",
              "unfair_socket_preference");

  // Arm the watchdog: anything that waits > 50ms is starvation.
  WatchdogConfig config;
  config.max_wait_ns = 50'000'000;
  config.auto_detach = true;
  FairnessWatchdog watchdog(config);
  CONCORD_CHECK(watchdog.Watch(id).ok());
  watchdog.Start();

  // Manufacture a starved waiter deterministically: hold the lock for 80ms
  // while a socket-7 victim waits.
  std::atomic<bool> victim_served{false};
  g_lock.Lock();
  std::thread victim([&] {
    ThreadRegistry::Global().RegisterCurrent(70);  // socket 7
    g_lock.Lock();
    victim_served.store(true);
    g_lock.Unlock();
  });
  const ShardedLockProfileStats* stats = concord.Stats(id);
  while (stats->Contentions() == 0) {
    SleepMs(1);
  }
  SleepMs(80);  // the victim is starving...
  g_lock.Unlock();
  victim.join();
  std::printf("victim served after an 80ms wait\n");

  // The watchdog saw it, and containment quarantined the policy.
  std::uint64_t deadline = MonotonicNowNs() + 5'000'000'000ull;
  while (watchdog.violations().empty() && MonotonicNowNs() < deadline) {
    SleepMs(5);
  }
  for (const auto& violation : watchdog.violations()) {
    std::printf("VIOLATION on '%s': waiter stuck %.1f ms (limit 50.0) -> %s\n",
                concord.NameOf(violation.lock_id).c_str(),
                static_cast<double>(violation.observed_ns) / 1e6,
                violation.detached ? "policy quarantined" : "reported only");
  }
  ContainmentRegistry& containment = ContainmentRegistry::Global();
  std::printf("policy health: %s\n",
              PolicyHealthName(containment.HealthOf(id)));

  // After the backoff, containment re-attaches the policy on probation.
  deadline = MonotonicNowNs() + 5'000'000'000ull;
  while (containment.HealthOf(id) == PolicyHealth::kQuarantined &&
         MonotonicNowNs() < deadline) {
    SleepMs(5);
  }
  watchdog.Stop();
  const PolicyHealth health = containment.HealthOf(id);
  std::printf("policy health: %s, '%s' %s\n", PolicyHealthName(health),
              concord.AttachedPolicyName(id).c_str(),
              health == PolicyHealth::kQuarantined ? "still parked"
                                                   : "back on the lock");

  CONCORD_CHECK(concord.Unregister(id).ok());
  return watchdog.violations().empty() || health == PolicyHealth::kQuarantined
             ? 1
             : 0;
}
