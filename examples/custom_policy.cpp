// Writing a custom lock policy from scratch.
//
// The policy below implements "deadline-ish boosting": any waiter that has
// already waited more than a threshold (stored in a map, tunable live from
// userspace) gets pulled into the shuffler's group. The example also shows
// the verifier doing its job: a buggy variant that dereferences the map
// value without a null check is rejected at attach time.
//
//   build/examples/custom_policy

#include <cstdio>
#include <thread>
#include <vector>

#include "src/bpf/assembler.h"
#include "src/concord/concord.h"
#include "src/concord/hooks.h"
#include "src/sync/shfllock.h"

using namespace concord;

int main() {
  Concord& concord = Concord::Global();
  static ShflLock lock;
  const std::uint64_t lock_id = concord.RegisterShflLock(lock, "svc_lock", "svc");

  // Tuning map: slot 0 holds the wait threshold in nanoseconds.
  auto threshold = std::make_shared<ArrayMap>("wait_threshold", 8, 1);
  CONCORD_CHECK(threshold->UpdateTyped(std::uint32_t{0},
                                       std::uint64_t{2'000'000}).ok());

  // The policy, in Concord's BPF assembly. Context layout for cmp_node:
  // shuffler view at +0, candidate ("curr") view at +40; wait_ns is the
  // first field of each view.
  const char* kBoostLongWaiters = R"(
      mov   r6, r1            ; save ctx across the helper call
      stw   [r10-4], 0        ; key = 0
      mov   r1, 0             ; map index 0 (the threshold map)
      mov   r2, r10
      add   r2, -4
      call  map_lookup_elem
      jeq   r0, 0, no         ; defensive: map slot missing
      ldxdw r3, [r0+0]        ; r3 = threshold_ns
      ldxdw r4, [r6+40]       ; r4 = curr.wait_ns
      jgt   r4, r3, yes       ; waited past the deadline => boost
    no:
      mov   r0, 0
      exit
    yes:
      mov   r0, 1
      exit
  )";

  auto program = AssembleProgram("boost_long_waiters", kBoostLongWaiters,
                                 &DescriptorFor(HookKind::kCmpNode),
                                 {threshold.get()});
  CONCORD_CHECK(program.ok());
  std::printf("assembled %zu instructions\n", program->insns.size());

  PolicySpec spec;
  spec.name = "deadline_boost";
  spec.maps.push_back(threshold);
  CONCORD_CHECK(spec.AddProgram(HookKind::kCmpNode, std::move(*program)).ok());
  Status status = concord.Attach(lock_id, std::move(spec));
  std::printf("attach: %s\n", status.ToString().c_str());

  // Retune the live policy from userspace: tighten the deadline to 100us.
  CONCORD_CHECK(threshold->UpdateTyped(std::uint32_t{0},
                                       std::uint64_t{100'000}).ok());
  std::printf("threshold retuned to 100us without re-attaching\n");

  // Exercise the lock under the policy.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 20'000; ++i) {
        ShflGuard guard(lock);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::printf("workload done; shuffle rounds = %llu\n",
              static_cast<unsigned long long>(lock.shuffle_rounds()));

  // --- the buggy variant: no null check on the map lookup -------------------
  const char* kBuggy = R"(
      stw   [r10-4], 0
      mov   r1, 0
      mov   r2, r10
      add   r2, -4
      call  map_lookup_elem
      ldxdw r0, [r0+0]        ; BUG: r0 may be NULL here
      exit
  )";
  auto buggy = AssembleProgram("buggy", kBuggy,
                               &DescriptorFor(HookKind::kCmpNode),
                               {threshold.get()});
  CONCORD_CHECK(buggy.ok());
  PolicySpec bad_spec;
  bad_spec.name = "buggy_policy";
  bad_spec.maps.push_back(threshold);
  CONCORD_CHECK(bad_spec.AddProgram(HookKind::kCmpNode, std::move(*buggy)).ok());
  Status rejected = concord.Attach(lock_id, std::move(bad_spec));
  std::printf("\nbuggy policy attach (expected to fail):\n  %s\n",
              rejected.ToString().c_str());
  CONCORD_CHECK(!rejected.ok());
  // Verification runs before anything touches the lock, so the previously
  // attached (verified) policy is still in place:
  std::printf("lock hooks after failed attach: %s\n",
              lock.hook_site().Current() != nullptr
                  ? "previous policy still active"
                  : "none");
  CONCORD_CHECK(lock.hook_site().Current() != nullptr);

  CONCORD_CHECK(concord.Unregister(lock_id).ok());
  return 0;
}
