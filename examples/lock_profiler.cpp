// Dynamic lock profiling at selectable granularity (§3.2).
//
// Three "kernel" locks exist: two in the vm class, one in the vfs class.
// Unlike lockstat — all locks or nothing — Concord profiles exactly what you
// select: first one instance, then a class, with per-lock wait/hold
// histograms.
//
//   build/examples/lock_profiler

#include <cstdio>
#include <thread>
#include <vector>

#include "src/base/time.h"
#include "src/concord/concord.h"
#include "src/sync/shfllock.h"

using namespace concord;

namespace {

ShflLock g_page_lock;    // vm
ShflLock g_vma_lock;     // vm
ShflLock g_rename_lock;  // vfs

void HammerLock(ShflLock& lock, int iterations, std::uint64_t hold_ns) {
  for (int i = 0; i < iterations; ++i) {
    ShflGuard guard(lock);
    BurnNs(hold_ns);
  }
}

void RunWorkload() {
  std::vector<std::thread> threads;
  threads.emplace_back(HammerLock, std::ref(g_page_lock), 2000, 5'000);
  threads.emplace_back(HammerLock, std::ref(g_page_lock), 2000, 5'000);
  threads.emplace_back(HammerLock, std::ref(g_vma_lock), 3000, 1'000);
  threads.emplace_back(HammerLock, std::ref(g_rename_lock), 500, 20'000);
  for (auto& thread : threads) {
    thread.join();
  }
}

}  // namespace

int main() {
  Concord& concord = Concord::Global();
  const std::uint64_t page_id =
      concord.RegisterShflLock(g_page_lock, "page_lock", "vm");
  concord.RegisterShflLock(g_vma_lock, "vma_lock", "vm");
  concord.RegisterShflLock(g_rename_lock, "rename_lock", "vfs");

  // Pass 1: profile a single instance.
  CONCORD_CHECK(concord.EnableProfiling(page_id).ok());
  RunWorkload();
  std::printf("--- profiling one instance (page_lock) ---\n%s\n",
              concord.ProfileReport("*").c_str());

  // Pass 2: widen to the whole vm class; vfs stays unprofiled (and carries
  // zero overhead — no hook table is installed on it at all).
  CONCORD_CHECK(concord.EnableProfilingBySelector("class:vm").ok());
  RunWorkload();
  std::printf("--- profiling class:vm ---\n%s\n",
              concord.ProfileReport("class:vm").c_str());
  std::printf("rename_lock hook table installed: %s\n",
              g_rename_lock.hook_site().Current() != nullptr ? "yes"
                                                             : "no (zero cost)");

  // Detailed histograms for the hot lock.
  const LockProfileSnapshot page = concord.Stats(page_id)->Snapshot();
  std::printf("\npage_lock hold-time histogram (ns buckets):\n%s",
              page.hold_ns.ToString().c_str());
  if (page.wait_ns.TotalCount() > 0) {
    std::printf("\npage_lock wait-time histogram (ns buckets):\n%s",
                page.wait_ns.ToString().c_str());
  }

  for (std::uint64_t id : concord.Select("*")) {
    CONCORD_CHECK(concord.Unregister(id).ok());
  }
  return 0;
}
