// Readers-writer lock attachment paths: precompiled and BPF rw_mode
// programs on BravoLock, and registry edge cases.

#include <gtest/gtest.h>

#include <atomic>

#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/sync/bravo.h"

namespace concord {
namespace {

class RwAttachTest : public ::testing::Test {
 protected:
  void TearDown() override { Concord::Global().ResetForTest(); }

  BravoLock<NeutralRwLock> neutral_bravo_;
  ShflLock shfl_;
};

// A spec holding one precompiled program at `kind`.
PolicySpec NativeSpec(HookKind kind, Program::NativeFn fn) {
  PolicySpec spec;
  spec.name = "native";
  spec.AddNative(kind, "native", fn);
  return spec;
}

std::atomic<std::uint32_t> mode{static_cast<std::uint32_t>(RwMode::kNeutral)};

std::uint64_t ModeFromAtomic(void*, void*) { return mode.load(); }

std::uint64_t ReaderBias(void*, void*) {
  return static_cast<std::uint64_t>(RwMode::kReaderBias);
}

std::uint64_t Zero(void*, void*) { return 0; }

TEST_F(RwAttachTest, NativeRwModeHookDrivesTheLock) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterRwLock(neutral_bravo_, "rw", "t");

  mode.store(static_cast<std::uint32_t>(RwMode::kNeutral));
  ASSERT_TRUE(
      concord.Attach(id, NativeSpec(HookKind::kRwMode, ModeFromAtomic)).ok());

  neutral_bravo_.ReadLock();
  neutral_bravo_.ReadUnlock();
  EXPECT_EQ(neutral_bravo_.fast_reads(), 0u);

  mode.store(static_cast<std::uint32_t>(RwMode::kReaderBias));
  for (int i = 0; i < 5; ++i) {
    neutral_bravo_.ReadLock();
    neutral_bravo_.ReadUnlock();
  }
  EXPECT_GT(neutral_bravo_.fast_reads(), 0u);
  ASSERT_TRUE(concord.Detach(id).ok());
}

TEST_F(RwAttachTest, NativeRwAttachRejectedOnShflLock) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(shfl_, "s", "t");
  // An empty spec is a valid no-op policy; rw_mode is what a ShflLock
  // never consults.
  EXPECT_EQ(concord.Attach(id, NativeSpec(HookKind::kRwMode, Zero)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RwAttachTest, NativeShflAttachRejectedOnRwLock) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterRwLock(neutral_bravo_, "rw", "t");
  EXPECT_EQ(concord.Attach(id, NativeSpec(HookKind::kCmpNode, Zero)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RwAttachTest, BpfRwSwitchReaderBiasGivesFastReads) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterRwLock(neutral_bravo_, "rw2", "t");
  auto policy = MakeRwSwitchPolicy(RwMode::kReaderBias);
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());
  for (int i = 0; i < 10; ++i) {
    neutral_bravo_.ReadLock();
    neutral_bravo_.ReadUnlock();
  }
  EXPECT_GT(neutral_bravo_.fast_reads(), 0u);
  neutral_bravo_.WriteLock();
  neutral_bravo_.WriteUnlock();
  ASSERT_TRUE(concord.Detach(id).ok());
}

TEST_F(RwAttachTest, ReattachReplacesNativeWithBpf) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterRwLock(neutral_bravo_, "rw", "t");

  ASSERT_TRUE(
      concord.Attach(id, NativeSpec(HookKind::kRwMode, ReaderBias)).ok());
  neutral_bravo_.ReadLock();
  neutral_bravo_.ReadUnlock();
  const std::uint64_t fast_with_native = neutral_bravo_.fast_reads();
  EXPECT_GT(fast_with_native, 0u);

  // Replace with a BPF policy pinned to neutral: fast path stops.
  auto policy = MakeRwSwitchPolicy(RwMode::kNeutral);
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());
  for (int i = 0; i < 5; ++i) {
    neutral_bravo_.ReadLock();
    neutral_bravo_.ReadUnlock();
  }
  EXPECT_EQ(neutral_bravo_.fast_reads(), fast_with_native);
}

TEST_F(RwAttachTest, UnregisterInvalidIdsFail) {
  Concord& concord = Concord::Global();
  EXPECT_EQ(concord.Unregister(0).code(), StatusCode::kNotFound);
  EXPECT_EQ(concord.Unregister(12345).code(), StatusCode::kNotFound);
  EXPECT_EQ(concord.Detach(12345).code(), StatusCode::kNotFound);
  EXPECT_EQ(concord.EnableProfiling(12345).code(), StatusCode::kNotFound);
  EXPECT_EQ(concord.DisableProfiling(12345).code(), StatusCode::kNotFound);
  EXPECT_EQ(concord.Stats(12345), nullptr);
}

}  // namespace
}  // namespace concord
