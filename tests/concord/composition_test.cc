// Combinator semantics for multi-program hook chains (§4.2 "chaining
// multiple eBPF programs" / §6 "composing policies"), run through the runner
// every trampoline uses, RunDecisionChain: on chains of precompiled
// constant programs, and on a chain of two shipped BPF policies.

#include <gtest/gtest.h>

#include <vector>

#include "src/concord/policies.h"
#include "src/concord/policy.h"

namespace concord {
namespace {

// Precompiled programs pass the admission gate unlinted, so these constant
// chains can return values above cmp_node's 0/1 range.
constexpr HookKind kChainHook = HookKind::kCmpNode;

std::uint64_t ReturnValue(void* value, void*) {
  return *static_cast<const std::uint64_t*>(value);
}

// Runs a chain of programs returning `values`, in order, under `combinator`.
std::uint64_t EvalChain(Combinator combinator,
                        std::vector<std::uint64_t> values) {
  PolicySpec spec;
  spec.name = "chain";
  for (std::uint64_t& value : values) {
    spec.AddNative(kChainHook, "const", ReturnValue, &value);
  }
  HookChain& chain = spec.ChainFor(kChainHook);
  chain.combinator = combinator;
  EXPECT_TRUE(spec.VerifyAll().ok());
  CmpNodeCtx ctx{};
  return RunDecisionChain(chain, &ctx);
}

TEST(CompositionTest, FirstNonZeroTakesFirstDecision) {
  EXPECT_EQ(EvalChain(Combinator::kFirstNonZero, {0, 7, 3}), 7u);
  EXPECT_EQ(EvalChain(Combinator::kFirstNonZero, {0, 0, 0}), 0u);
  EXPECT_EQ(EvalChain(Combinator::kFirstNonZero, {5}), 5u);
}

TEST(CompositionTest, AllRequiresUnanimity) {
  EXPECT_EQ(EvalChain(Combinator::kAll, {1, 1, 1}), 1u);
  EXPECT_EQ(EvalChain(Combinator::kAll, {7, 3}), 1u);
  EXPECT_EQ(EvalChain(Combinator::kAll, {1, 0, 1}), 0u);
  EXPECT_EQ(EvalChain(Combinator::kAll, {}), 1u);  // vacuous truth
}

TEST(CompositionTest, AnyRequiresOneVote) {
  EXPECT_EQ(EvalChain(Combinator::kAny, {0, 0, 1}), 1u);
  EXPECT_EQ(EvalChain(Combinator::kAny, {0, 7}), 1u);
  EXPECT_EQ(EvalChain(Combinator::kAny, {0, 0, 0}), 0u);
  EXPECT_EQ(EvalChain(Combinator::kAny, {}), 0u);
}

// End-to-end: a kAll chain of (numa grouping) AND (priority >= threshold)
// only boosts waiters satisfying both — verified on the actual programs.
TEST(CompositionTest, NumaAndPriorityConjunction) {
  auto numa = MakeNumaGroupingPolicy();
  ASSERT_TRUE(numa.ok());
  auto prio = MakePriorityBoostPolicy();
  ASSERT_TRUE(prio.ok());

  PolicySpec spec;
  spec.name = "numa_and_priority";
  HookChain& chain = spec.ChainFor(HookKind::kCmpNode);
  chain.combinator = Combinator::kAll;
  chain.programs.push_back(
      std::move(numa->spec.ChainFor(HookKind::kCmpNode).programs.front()));
  chain.programs.push_back(
      std::move(prio->spec.ChainFor(HookKind::kCmpNode).programs.front()));
  for (auto& map : prio->spec.maps) {
    spec.maps.push_back(map);
  }
  ASSERT_TRUE(spec.VerifyAll().ok());

  auto decide = [&](std::uint32_t shuffler_socket, std::uint32_t curr_socket,
                    std::int32_t curr_priority) {
    CmpNodeCtx ctx{};
    ctx.shuffler.socket = shuffler_socket;
    ctx.curr.socket = curr_socket;
    ctx.curr.priority = curr_priority;
    return RunDecisionChain(chain, &ctx) != 0;
  };

  EXPECT_TRUE(decide(2, 2, 5));    // same socket AND priority >= 1
  EXPECT_FALSE(decide(2, 3, 5));   // wrong socket
  EXPECT_FALSE(decide(2, 2, 0));   // priority too low
  EXPECT_FALSE(decide(2, 3, 0));   // both wrong
}

}  // namespace
}  // namespace concord
