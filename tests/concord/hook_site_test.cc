// One hook table and one hook site for both lock families: the same
// precompiled and BPF programs, the same quarantine round trip and the same
// kind rule run over ShflLock and BravoLock<NeutralRwLock>.

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "src/bpf/assembler.h"
#include "src/concord/concord.h"
#include "src/concord/hooks.h"
#include "src/concord/policies.h"
#include "src/sync/bravo.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

using Bravo = BravoLock<NeutralRwLock>;

// How each family registers, takes one acquisition that fires the acquire,
// acquired and release taps, and which hooks it never consults.
template <typename LockT>
struct Family;

template <>
struct Family<ShflLock> {
  static std::uint64_t Register(ShflLock& lock) {
    return Concord::Global().RegisterShflLock(lock, "site", "t");
  }
  static void Cycle(ShflLock& lock) {
    lock.Lock();
    lock.Unlock();
  }
  static bool Rejects(HookKind kind) { return kind == HookKind::kRwMode; }
};

template <>
struct Family<Bravo> {
  static std::uint64_t Register(Bravo& lock) {
    return Concord::Global().RegisterRwLock(lock, "site", "t");
  }
  static void Cycle(Bravo& lock) {
    lock.ReadLock();
    lock.ReadUnlock();
  }
  static bool Rejects(HookKind kind) {
    return kind == HookKind::kCmpNode || kind == HookKind::kSkipShuffle ||
           kind == HookKind::kScheduleWaiter;
  }
};

template <typename LockT>
class HookSiteTest : public ::testing::Test {
 protected:
  void TearDown() override { Concord::Global().ResetForTest(); }

  LockT lock_;
};

using LockFamilies = ::testing::Types<ShflLock, Bravo>;
TYPED_TEST_SUITE(HookSiteTest, LockFamilies);

std::uint64_t CountCalls(void* calls, void*) {
  static_cast<std::atomic<std::uint64_t>*>(calls)->fetch_add(
      1, std::memory_order_relaxed);
  return 0;
}

// A spec with one precompiled program at `kind`, returning 0.
PolicySpec NativeFilling(HookKind kind) {
  PolicySpec spec;
  spec.name = std::string("native_") + HookKindName(kind);
  spec.AddNative(kind, spec.name, [](void*, void*) { return std::uint64_t{0}; });
  return spec;
}

// A spec with one trivial BPF program at `kind`, which verifies at every kind.
PolicySpec BpfFilling(HookKind kind) {
  PolicySpec spec;
  spec.name = std::string("only_") + HookKindName(kind);
  auto program =
      AssembleProgram(spec.name, "mov r0, 0\nexit\n", &DescriptorFor(kind));
  EXPECT_TRUE(program.ok()) << HookKindName(kind);
  if (program.ok()) {
    EXPECT_TRUE(spec.AddProgram(kind, std::move(*program)).ok());
  }
  return spec;
}

TYPED_TEST(HookSiteTest, NativeAttachmentSurvivesQuarantineRoundTrip) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = Family<TypeParam>::Register(this->lock_);
  std::atomic<std::uint64_t> releases{0};
  PolicySpec spec;
  spec.name = "counting";
  spec.AddNative(HookKind::kLockRelease, "count", CountCalls, &releases);
  ASSERT_TRUE(concord.Attach(id, std::move(spec)).ok());
  Family<TypeParam>::Cycle(this->lock_);
  EXPECT_EQ(releases.load(), 1u);

  // Parked: off the lock, but still named for the probation re-attach.
  ASSERT_TRUE(concord.DetachForQuarantine(id).ok());
  EXPECT_EQ(this->lock_.hook_site().Current(), nullptr);
  EXPECT_EQ(concord.AttachedPolicyName(id), "counting");
  Family<TypeParam>::Cycle(this->lock_);
  EXPECT_EQ(releases.load(), 1u);

  ASSERT_TRUE(concord.ReattachFromQuarantine(id).ok());
  EXPECT_EQ(concord.AttachedPolicyName(id), "counting");
  Family<TypeParam>::Cycle(this->lock_);
  EXPECT_EQ(releases.load(), 2u);
  EXPECT_EQ(concord.ReattachFromQuarantine(id).code(),
            StatusCode::kFailedPrecondition);
}

TYPED_TEST(HookSiteTest, BpfAttachmentSurvivesQuarantineRoundTrip) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = Family<TypeParam>::Register(this->lock_);
  auto policy = MakeBpfProfilerPolicy();
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(concord.Attach(id, policy->spec).ok());
  Family<TypeParam>::Cycle(this->lock_);
  EXPECT_EQ(policy->Count(HookKind::kLockRelease), 1u);

  ASSERT_TRUE(concord.DetachForQuarantine(id).ok());
  EXPECT_EQ(this->lock_.hook_site().Current(), nullptr);
  EXPECT_EQ(concord.AttachedPolicyName(id), "bpf_profiler");
  Family<TypeParam>::Cycle(this->lock_);
  EXPECT_EQ(policy->Count(HookKind::kLockRelease), 1u);

  ASSERT_TRUE(concord.ReattachFromQuarantine(id).ok());
  EXPECT_EQ(concord.AttachedPolicyName(id), "bpf_profiler");
  Family<TypeParam>::Cycle(this->lock_);
  EXPECT_EQ(policy->Count(HookKind::kLockAcquire), 2u);
  EXPECT_EQ(policy->Count(HookKind::kLockAcquired), 2u);
  EXPECT_EQ(policy->Count(HookKind::kLockRelease), 2u);
}

TYPED_TEST(HookSiteTest, OneKindRuleForNativeAndBpfPrograms) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = Family<TypeParam>::Register(this->lock_);
  for (int k = 0; k < kNumHookKinds; ++k) {
    const auto kind = static_cast<HookKind>(k);
    const StatusCode expected = Family<TypeParam>::Rejects(kind)
                                    ? StatusCode::kFailedPrecondition
                                    : StatusCode::kOk;
    EXPECT_EQ(concord.Attach(id, NativeFilling(kind)).code(), expected)
        << "native " << HookKindName(kind);
    EXPECT_EQ(concord.Attach(id, BpfFilling(kind)).code(), expected)
        << "bpf " << HookKindName(kind);
  }
}

}  // namespace
}  // namespace concord
