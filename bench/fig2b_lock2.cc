// Figure 2(b): lock2 — ops/msec vs thread count for
// Stock / ShflLock / Concord-ShflLock (writer-heavy file-lock path).

#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/kernelsim/proc_locks.h"
#include "src/sim/workloads.h"
#include "src/sync/ticket_lock.h"

namespace concord {
namespace {

void RunSimPart() {
  auto numa = MakeNumaGroupingPolicy();
  CONCORD_CHECK(numa.ok());
  CONCORD_CHECK(numa->spec.VerifyAll().ok());
  const Program* cmp = &numa->spec.ChainFor(HookKind::kCmpNode).programs.front();

  bench::PrintHeader("Fig 2(b) lock2 [simulated 8x10 machine, ops/msec]",
                     {"Stock", "ShflLock", "Concord-ShflLock"});
  for (std::uint32_t threads : bench::PaperThreadSweep()) {
    Lock2Params params;
    params.threads = threads;
    params.duration_ns = 3'000'000;
    params.cmp_program = cmp;
    const double stock = SimLock2(Lock2Flavor::kStockTicket, params).ops_per_msec;
    const double shfl = SimLock2(Lock2Flavor::kShflLock, params).ops_per_msec;
    const double concord =
        SimLock2(Lock2Flavor::kConcordShflLock, params).ops_per_msec;
    bench::PrintRow(threads, {stock, shfl, concord});
  }
}

template <typename LockT>
double RunRealWorkload(ProcLockTable<LockT>& table, std::uint32_t threads,
                       std::uint64_t ms) {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 64; ++i) {
          table.LockUnlockCycle(t, t);
        }
        ops.fetch_add(64, std::memory_order_relaxed);
      }
    });
  }
  bench::SleepMs(ms);
  stop.store(true);
  for (auto& worker : workers) {
    worker.join();
  }
  return static_cast<double>(ops.load()) / static_cast<double>(ms);
}

void RunRealPart() {
  constexpr std::uint64_t kMs = 400;
  bench::PrintHeader("Fig 2(b) lock2 [real threads on host, ops/msec]",
                     {"Stock", "ShflLock", "Concord-ShflLock"});
  for (std::uint32_t threads : {1u, 2u, 4u}) {
    ProcLockTable<TicketLock> stock_table;
    const double stock = RunRealWorkload(stock_table, threads, kMs);

    // ShflLock with the NUMA policy precompiled (native hooks). Blocking
    // (spin-then-park) mode: spinning under host oversubscription is
    // pathological, and lock2's contended path blocks in real kernels too.
    ProcLockTable<ShflLock> shfl_table;
    shfl_table.global_lock().SetBlocking(true);
    {
      HookTable native;
      native.cmp_node = [](void*, const ShflWaiterView& s,
                           const ShflWaiterView& c) { return s.socket == c.socket; };
      shfl_table.global_lock().hook_site().Install(&native);
      // Keep `native` alive for the run: block scope below.
      const double shfl = RunRealWorkload(shfl_table, threads, kMs);
      shfl_table.global_lock().hook_site().Install(nullptr);
      Rcu::Global().Synchronize();

      // Concord path: same policy as verified BPF, attached via the facade.
      ProcLockTable<ShflLock> concord_table;
      concord_table.global_lock().SetBlocking(true);
      Concord& concord = Concord::Global();
      const std::uint64_t id = concord.RegisterShflLock(
          concord_table.global_lock(), "file_lock_lock", "fs");
      auto policy = MakeNumaGroupingPolicy();
      CONCORD_CHECK(policy.ok());
      CONCORD_CHECK(concord.Attach(id, std::move(policy->spec)).ok());
      const double concord_shfl = RunRealWorkload(concord_table, threads, kMs);
      CONCORD_CHECK(concord.Unregister(id).ok());

      bench::PrintRow(threads, {stock, shfl, concord_shfl});
    }
  }
  std::printf("(ratio Concord-ShflLock / ShflLock is the paper's overhead claim)\n");
}

}  // namespace
}  // namespace concord

int main() {
  concord::bench::ReportInit("fig2b_lock2");
  concord::bench::ReportConfig("sim_duration_ns", 3'000'000.0);
  concord::bench::ReportConfig("real_duration_ms", 400.0);
  concord::RunSimPart();
  concord::RunRealPart();
  concord::bench::ReportWrite();
  return 0;
}
