#include "src/concord/concord.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/base/time.h"
#include "src/bpf/assembler.h"
#include "src/concord/policies.h"
#include "src/sync/bravo.h"

namespace concord {
namespace {

// Locks live in the fixture so they outlive TearDown's unregistration —
// Concord requires Unregister before a registered lock is destroyed.
class ConcordTest : public ::testing::Test {
 protected:
  void TearDown() override { Concord::Global().ResetForTest(); }

  ShflLock lock_;
  ShflLock lock2_;
  ShflLock lock3_;
  BravoLock<NeutralRwLock> rw_;
};

TEST_F(ConcordTest, RegisterAssignsDenseIds) {
  ShflLock& a = lock_;
  ShflLock& b = lock2_;
  const std::uint64_t id_a =
      Concord::Global().RegisterShflLock(a, "lock_a", "test");
  const std::uint64_t id_b =
      Concord::Global().RegisterShflLock(b, "lock_b", "test");
  EXPECT_NE(id_a, 0u);
  EXPECT_EQ(id_b, id_a + 1);
  EXPECT_EQ(a.hook_site().lock_id(), id_a);
  EXPECT_EQ(Concord::Global().NameOf(id_a), "lock_a");
}

TEST_F(ConcordTest, SelectByNameClassAndWildcard) {
  ShflLock& a = lock_;
  ShflLock& b = lock2_;
  ShflLock& c = lock3_;
  Concord& concord = Concord::Global();
  concord.RegisterShflLock(a, "mmap_sem", "vm");
  concord.RegisterShflLock(b, "page_lock", "vm");
  concord.RegisterShflLock(c, "rename_lock", "vfs");

  EXPECT_EQ(concord.Select("mmap_sem").size(), 1u);
  EXPECT_EQ(concord.Select("class:vm").size(), 2u);
  EXPECT_EQ(concord.Select("class:vfs").size(), 1u);
  EXPECT_EQ(concord.Select("*").size(), 3u);
  EXPECT_TRUE(concord.Select("nonexistent").empty());

  auto found = concord.Find("rename_lock");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(concord.NameOf(*found), "rename_lock");
  EXPECT_FALSE(concord.Find("missing").ok());
}

TEST_F(ConcordTest, AttachRejectsUnknownLock) {
  PolicySpec spec;
  spec.name = "empty";
  EXPECT_EQ(Concord::Global().Attach(9999, std::move(spec)).code(),
            StatusCode::kNotFound);
}

TEST_F(ConcordTest, AttachVerifiesPrograms) {
  ShflLock& lock = lock_;
  const std::uint64_t id =
      Concord::Global().RegisterShflLock(lock, "l", "test");

  // An unbounded-memory program must be rejected at attach, not at runtime.
  auto bad = AssembleProgram("bad", R"(
    ldxdw r0, [r10-8]   ; uninitialized stack read
    exit
  )",
                             &DescriptorFor(HookKind::kCmpNode));
  ASSERT_TRUE(bad.ok());
  PolicySpec spec;
  spec.name = "bad_policy";
  ASSERT_TRUE(spec.AddProgram(HookKind::kCmpNode, std::move(*bad)).ok());
  Status status = Concord::Global().Attach(id, std::move(spec));
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  // The lock must be untouched.
  EXPECT_EQ(lock.hook_site().Current(), nullptr);
}

TEST_F(ConcordTest, AttachEnforcesHookCapabilities) {
  ShflLock& lock = lock_;
  const std::uint64_t id =
      Concord::Global().RegisterShflLock(lock, "l", "test");

  // trace_printk requires kCapTrace, which cmp_node does not grant.
  auto prog = AssembleProgram("tracer", R"(
    mov r1, 1
    mov r2, 2
    mov r3, 3
    call trace_printk
    mov r0, 0
    exit
  )",
                              &DescriptorFor(HookKind::kCmpNode));
  ASSERT_TRUE(prog.ok());
  PolicySpec spec;
  spec.name = "trace_in_cmp";
  ASSERT_TRUE(spec.AddProgram(HookKind::kCmpNode, std::move(*prog)).ok());
  Status status = Concord::Global().Attach(id, std::move(spec));
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(status.message().find("not permitted"), std::string::npos);
}

TEST_F(ConcordTest, AddProgramRejectsWrongDescriptor) {
  auto prog = AssembleProgram("p", "mov r0, 0\nexit\n",
                              &DescriptorFor(HookKind::kRwMode));
  ASSERT_TRUE(prog.ok());
  PolicySpec spec;
  Status status = spec.AddProgram(HookKind::kCmpNode, std::move(*prog));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ConcordTest, KindMismatchRejected) {
  ShflLock& shfl = lock_;
  BravoLock<NeutralRwLock>& rw = rw_;
  Concord& concord = Concord::Global();
  const std::uint64_t shfl_id = concord.RegisterShflLock(shfl, "s", "t");
  const std::uint64_t rw_id = concord.RegisterRwLock(rw, "r", "t");

  auto rw_policy = MakeRwSwitchPolicy(RwMode::kNeutral);
  ASSERT_TRUE(rw_policy.ok());
  EXPECT_EQ(concord.Attach(shfl_id, std::move(rw_policy->spec)).code(),
            StatusCode::kFailedPrecondition);

  auto numa = MakeNumaGroupingPolicy();
  ASSERT_TRUE(numa.ok());
  EXPECT_EQ(concord.Attach(rw_id, std::move(numa->spec)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ConcordTest, AttachDetachRoundTrip) {
  ShflLock& lock = lock_;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "l", "test");

  auto numa = MakeNumaGroupingPolicy();
  ASSERT_TRUE(numa.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(numa->spec)).ok());
  EXPECT_NE(lock.hook_site().Current(), nullptr);

  // Lock remains usable with the policy attached.
  for (int i = 0; i < 100; ++i) {
    ShflGuard guard(lock);
  }

  ASSERT_TRUE(concord.Detach(id).ok());
  EXPECT_EQ(lock.hook_site().Current(), nullptr);
}

TEST_F(ConcordTest, AttachBySelectorCoversClass) {
  ShflLock& a = lock_;
  ShflLock& b = lock2_;
  Concord& concord = Concord::Global();
  concord.RegisterShflLock(a, "a", "fs");
  concord.RegisterShflLock(b, "b", "fs");
  auto numa = MakeNumaGroupingPolicy();
  ASSERT_TRUE(numa.ok());
  ASSERT_TRUE(concord.AttachBySelector("class:fs", numa->spec).ok());
  EXPECT_NE(a.hook_site().Current(), nullptr);
  EXPECT_NE(b.hook_site().Current(), nullptr);
}

TEST_F(ConcordTest, NativeAttachIsThePrecompiledPath) {
  ShflLock& lock = lock_;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "l", "test");

  PolicySpec spec;
  spec.name = "native_numa";
  spec.AddNative(HookKind::kCmpNode, "same_socket", [](void*, void* ctx) {
    const auto* c = static_cast<const CmpNodeCtx*>(ctx);
    return std::uint64_t{c->shuffler.socket == c->curr.socket};
  });
  ASSERT_TRUE(concord.Attach(id, std::move(spec)).ok());
  EXPECT_NE(lock.hook_site().Current(), nullptr);
  for (int i = 0; i < 100; ++i) {
    ShflGuard guard(lock);
  }
  ASSERT_TRUE(concord.Detach(id).ok());
}

// A precompiled program passes the gate unchecked; a BPF program beside it
// in the same chain is still verified, linted and certified.
TEST_F(ConcordTest, NativeProgramLeavesItsChainGated) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "l", "test");
  PolicySpec spec;
  spec.name = "mixed";
  spec.AddNative(HookKind::kCmpNode, "never",
                 [](void*, void*) { return std::uint64_t{0}; });
  // cmp_node decides 0 or 1, so returning 2 fails the return-range lint.
  auto two = AssembleProgram("returns_two", "mov r0, 2\nexit\n",
                             &DescriptorFor(HookKind::kCmpNode));
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(spec.AddProgram(HookKind::kCmpNode, std::move(*two)).ok());

  const Status status = concord.Attach(id, std::move(spec));
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied) << status.ToString();
  EXPECT_NE(status.message().find("return-range"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(lock_.hook_site().Current(), nullptr);
  EXPECT_EQ(concord.AttachedPolicyName(id), "");
}

TEST_F(ConcordTest, HotSwapBetweenPoliciesUnderLoad) {
  ShflLock& lock = lock_;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "l", "test");

  std::atomic<bool> stop{false};
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ShflGuard guard(lock);
        counter = counter + 1;
      }
    });
  }

  for (int i = 0; i < 10; ++i) {
    auto numa = MakeNumaGroupingPolicy();
    ASSERT_TRUE(numa.ok());
    ASSERT_TRUE(concord.Attach(id, std::move(numa->spec)).ok());
    auto prio = MakePriorityBoostPolicy();
    ASSERT_TRUE(prio.ok());
    ASSERT_TRUE(concord.Attach(id, std::move(prio->spec)).ok());
    ASSERT_TRUE(concord.Detach(id).ok());
  }
  stop.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  SUCCEED();
}

TEST_F(ConcordTest, UnregisterDetachesFirst) {
  ShflLock& lock = lock_;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "l", "test");
  auto numa = MakeNumaGroupingPolicy();
  ASSERT_TRUE(numa.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(numa->spec)).ok());
  ASSERT_TRUE(concord.Unregister(id).ok());
  EXPECT_EQ(lock.hook_site().Current(), nullptr);
  EXPECT_TRUE(concord.Select("*").empty());
}

TEST_F(ConcordTest, ListLocksReportsAttachmentState) {
  Concord& concord = Concord::Global();
  const std::uint64_t shfl_id = concord.RegisterShflLock(lock_, "s", "g1");
  concord.RegisterRwLock(rw_, "r", "g2");

  auto numa = MakeNumaGroupingPolicy();
  ASSERT_TRUE(numa.ok());
  ASSERT_TRUE(concord.Attach(shfl_id, std::move(numa->spec)).ok());
  ASSERT_TRUE(concord.EnableProfiling(shfl_id).ok());

  const auto all = concord.ListLocks("*");
  ASSERT_EQ(all.size(), 2u);
  const auto& shfl_info = all[0].name == "s" ? all[0] : all[1];
  const auto& rw_info = all[0].name == "s" ? all[1] : all[0];
  EXPECT_FALSE(shfl_info.is_rw);
  EXPECT_TRUE(shfl_info.has_policy);
  EXPECT_EQ(shfl_info.policy_name, "numa_grouping");
  EXPECT_TRUE(shfl_info.profiling);
  EXPECT_TRUE(rw_info.is_rw);
  EXPECT_FALSE(rw_info.has_policy);
  EXPECT_FALSE(rw_info.profiling);

  EXPECT_EQ(concord.ListLocks("class:g2").size(), 1u);
}

TEST_F(ConcordTest, CompositionChainsRunInOrder) {
  // Two cmp programs under kAny: socket match OR priority>=100. A waiter
  // matching either condition must be boosted; verified indirectly through
  // a direct chain-decision check via attach + lock exercise (no crash,
  // policy verifies). The decision logic itself is unit-tested through the
  // policy specs in policies_test.cc; here we check multi-program attach.
  ShflLock& lock = lock_;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "l", "test");

  auto numa = MakeNumaGroupingPolicy();
  ASSERT_TRUE(numa.ok());
  auto prio = MakePriorityBoostPolicy();
  ASSERT_TRUE(prio.ok());

  PolicySpec combined;
  combined.name = "numa_or_priority";
  combined.ChainFor(HookKind::kCmpNode).combinator = Combinator::kAny;
  for (auto& program : numa->spec.ChainFor(HookKind::kCmpNode).programs) {
    combined.ChainFor(HookKind::kCmpNode).programs.push_back(std::move(program));
  }
  for (auto& program : prio->spec.ChainFor(HookKind::kCmpNode).programs) {
    combined.ChainFor(HookKind::kCmpNode).programs.push_back(std::move(program));
  }
  for (auto& map : prio->spec.maps) {
    combined.maps.push_back(map);
  }
  ASSERT_TRUE(concord.Attach(id, std::move(combined)).ok());
  for (int i = 0; i < 100; ++i) {
    ShflGuard guard(lock);
  }
  ASSERT_TRUE(concord.Detach(id).ok());
}

}  // namespace
}  // namespace concord
