// RCU stress that detaches under load: worker threads hammer a ShflLock and
// a BravoLock while a control thread attaches, replaces and detaches specs of
// precompiled programs on both. Each policy's programs run inside the locks'
// RCU read sections and make a plain write to the calling worker's slot of
// the policy's state. The control thread reads those slots after the grace
// period, then poisons and frees the state.
//
// What catches a broken grace period:
//   - ASan: a hook touching a freed state is a heap-use-after-free;
//   - TSan: the slot reads race with the workers' writes unless every read
//     section's end (a release store) is ordered before the writer's scan;
//   - any build: each worker's hook calls must all be found in the slots the
//     control thread read, and no hook may see a poisoned state.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stop_token>
#include <thread>
#include <vector>

#include "src/base/cacheline.h"
#include "src/concord/concord.h"
#include "src/rcu/rcu.h"
#include "src/sync/bravo.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

constexpr int kShflWorkers = 2;
constexpr int kBravoWorkers = 2;
constexpr int kWorkers = kShflWorkers + kBravoWorkers;

struct PolicyState {
  static constexpr std::uint64_t kAlive = 0xa11fedull;
  static constexpr std::uint64_t kPoison = 0xdeadbeefull;

  std::uint64_t alive = kAlive;
  CacheLinePadded<std::uint64_t> calls[kWorkers];  // plain, one per worker
};

thread_local int tls_worker = -1;
thread_local std::uint64_t tls_hook_calls = 0;
std::atomic<bool> saw_poison{false};

std::uint64_t TouchTap(void* data, void*) {
  auto* state = static_cast<PolicyState*>(data);
  if (state->alive != PolicyState::kAlive) {
    saw_poison.store(true, std::memory_order_relaxed);
  }
  ++*state->calls[tls_worker];
  ++tls_hook_calls;
  return 0;
}

std::uint64_t TouchRwMode(void* data, void* ctx) {
  TouchTap(data, ctx);
  return static_cast<std::uint64_t>(RwMode::kReaderBias);
}

PolicySpec ShflPolicy(PolicyState* state) {
  PolicySpec spec;
  spec.name = "touch";
  spec.AddNative(HookKind::kLockAcquire, "acquire", TouchTap, state);
  spec.AddNative(HookKind::kLockAcquired, "acquired", TouchTap, state);
  spec.AddNative(HookKind::kLockRelease, "release", TouchTap, state);
  return spec;
}

PolicySpec RwPolicy(PolicyState* state) {
  PolicySpec spec;
  spec.name = "touch-rw";
  spec.AddNative(HookKind::kRwMode, "rw_mode", TouchRwMode, state);
  spec.AddNative(HookKind::kLockAcquired, "acquired", TouchTap, state);
  spec.AddNative(HookKind::kLockRelease, "release", TouchTap, state);
  return spec;
}

class RcuDetachStressTest : public ::testing::Test {
 protected:
  void TearDown() override { Concord::Global().ResetForTest(); }

  // Called once the state's policy is off its lock and a grace period has
  // passed: tallies the workers' slots, then poisons and frees the state.
  void Retire(PolicyState* state) {
    for (int w = 0; w < kWorkers; ++w) {
      seen_[w] += *state->calls[w];
      *state->calls[w] = PolicyState::kPoison;
    }
    state->alive = PolicyState::kPoison;
    delete state;
  }

  std::uint64_t seen_[kWorkers] = {};
  ShflLock shfl_;
  BravoLock<NeutralRwLock> bravo_;
};

TEST_F(RcuDetachStressTest, DetachUnderLoadNeverTouchesFreedPolicyState) {
  Concord& concord = Concord::Global();
  const std::uint64_t shfl_id = concord.RegisterShflLock(shfl_, "stress", "t");
  const std::uint64_t rw_id = concord.RegisterRwLock(bravo_, "stress-rw", "t");
  saw_poison.store(false);

  // jthreads: a failed ASSERT below still stops and joins the workers.
  std::uint64_t hook_calls[kWorkers] = {};
  std::vector<std::jthread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w](std::stop_token stop) {
      tls_worker = w;
      while (!stop.stop_requested()) {
        if (w < kShflWorkers) {
          shfl_.Lock();
          shfl_.Unlock();
        } else {
          bravo_.ReadLock();
          bravo_.ReadUnlock();
        }
      }
      hook_calls[w] = tls_hook_calls;
    });
  }

  // Waits until both locks have been taken a few more times, so the policy
  // just attached is in use when the next swap retires it.
  auto await_traffic = [&] {
    constexpr std::uint64_t kAcquisitions = 20;
    auto reads = [&] { return bravo_.fast_reads() + bravo_.slow_reads(); };
    const std::uint64_t shfl_base = shfl_.acquisitions();
    const std::uint64_t rw_base = reads();
    while (shfl_.acquisitions() < shfl_base + kAcquisitions ||
           reads() < rw_base + kAcquisitions) {
      std::this_thread::yield();
    }
  };

  // Each round attaches a policy, replaces it with a second one and detaches
  // that, on both locks. Attach, replace and detach each return after the
  // grace period that retires the previous table; the explicit Synchronize
  // stands for a control plane that does not rely on that.
  constexpr int kRounds = 150;
  for (int round = 0; round < kRounds; ++round) {
    auto* shfl_first = new PolicyState;
    auto* rw_first = new PolicyState;
    ASSERT_TRUE(concord.Attach(shfl_id, ShflPolicy(shfl_first)).ok());
    ASSERT_TRUE(concord.Attach(rw_id, RwPolicy(rw_first)).ok());
    await_traffic();

    auto* shfl_second = new PolicyState;
    auto* rw_second = new PolicyState;
    ASSERT_TRUE(concord.Attach(shfl_id, ShflPolicy(shfl_second)).ok());
    ASSERT_TRUE(concord.Attach(rw_id, RwPolicy(rw_second)).ok());
    Rcu::Global().Synchronize();
    Retire(shfl_first);
    Retire(rw_first);
    await_traffic();

    ASSERT_TRUE(concord.Detach(shfl_id).ok());
    ASSERT_TRUE(concord.Detach(rw_id).ok());
    Rcu::Global().Synchronize();
    Retire(shfl_second);
    Retire(rw_second);
  }

  workers.clear();  // requests stop and joins each worker
  EXPECT_FALSE(saw_poison.load());
  std::uint64_t total = 0;
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(seen_[w], hook_calls[w]) << "worker " << w;
    total += hook_calls[w];
  }
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace concord
