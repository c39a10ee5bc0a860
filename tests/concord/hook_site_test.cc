// One hook table and one hook site for both lock families: the same
// precompiled and BPF programs, the same quarantine round trip, the same kind
// rule and the same hook mask run over ShflLock and BravoLock<NeutralRwLock>.

#include <gtest/gtest.h>

#include <atomic>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/time.h"
#include "src/bpf/assembler.h"
#include "src/concord/concord.h"
#include "src/concord/hooks.h"
#include "src/concord/policies.h"
#include "src/sync/bravo.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

using Bravo = BravoLock<NeutralRwLock>;

// Sleeps (so other threads get the CPU) until `pred` holds or ~10s elapse.
// Returns whether the predicate held.
bool AwaitCondition(const std::function<bool()>& pred) {
  const std::uint64_t deadline = MonotonicNowNs() + 10'000'000'000ull;
  while (!pred()) {
    if (MonotonicNowNs() > deadline) {
      return false;
    }
    timespec ts{0, 100'000};  // 0.1ms
    nanosleep(&ts, nullptr);
  }
  return true;
}

// How each family registers, takes one acquisition that fires the acquire,
// acquired and release taps, which hooks it never consults, and which slots
// it fires.
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

  static constexpr HookKind kFired[] = {
      HookKind::kCmpNode,        HookKind::kSkipShuffle,
      HookKind::kScheduleWaiter, HookKind::kLockAcquire,
      HookKind::kLockContended,  HookKind::kLockAcquired,
      HookKind::kLockRelease};
  static constexpr HookKind kOneSlot = HookKind::kCmpNode;
  // The timing bits its programs can ask for.
  static constexpr std::uint32_t kTimingBits =
      HookSite::kTrackHoldTime | HookSite::kTrackWaitTime;

  // One uncontended pair fires the acquire, acquired and release taps. Then
  // three waiters queue behind the held lock until `all_fired`: each fires
  // lock_contended, the queue head shuffles over the other two (skip_shuffle,
  // cmp_node), and, in blocking mode, every waiter consults schedule_waiter.
  // Blocking mode is on only while schedule_waiter is filled (its programs
  // never park), so a head never parks away from its shuffle rounds.
  static void Exercise(ShflLock& lock, std::uint32_t filled,
                       const std::function<bool()>& all_fired) {
    Cycle(lock);
    lock.SetBlocking((filled & HookSite::kScheduleWaiter) != 0);
    lock.Lock();
    std::vector<std::thread> waiters;
    for (int i = 0; i < 3; ++i) {
      waiters.emplace_back([&lock] { Cycle(lock); });
    }
    EXPECT_TRUE(AwaitCondition(all_fired));
    lock.Unlock();
    for (auto& waiter : waiters) {
      waiter.join();
    }
    lock.SetBlocking(false);
  }
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
  // BravoLock never fires lock_contended: no reader or writer queues through
  // a hook point.
  static bool Rejects(HookKind kind) {
    return kind == HookKind::kCmpNode || kind == HookKind::kSkipShuffle ||
           kind == HookKind::kScheduleWaiter ||
           kind == HookKind::kLockContended;
  }

  static constexpr HookKind kFired[] = {
      HookKind::kRwMode, HookKind::kLockAcquire, HookKind::kLockAcquired,
      HookKind::kLockRelease};
  static constexpr HookKind kOneSlot = HookKind::kRwMode;
  // No context it fills carries a wait_ns.
  static constexpr std::uint32_t kTimingBits = HookSite::kTrackHoldTime;

  // One read pair fires every slot the lock consults.
  static void Exercise(Bravo& lock, std::uint32_t /*filled*/,
                       const std::function<bool()>& all_fired) {
    Cycle(lock);
    EXPECT_TRUE(all_fired());
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
  // The family attaches the profiler's programs for the taps it fires.
  for (int k = 0; k < kNumHookKinds; ++k) {
    const auto kind = static_cast<HookKind>(k);
    if (Family<TypeParam>::Rejects(kind)) {
      policy->spec.ChainFor(kind).programs.clear();
    }
  }
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

// The HookSite mask bit of a hook kind's slot.
std::uint32_t BitOf(HookKind kind) {
  switch (kind) {
    case HookKind::kCmpNode:
      return HookSite::kCmpNode;
    case HookKind::kSkipShuffle:
      return HookSite::kSkipShuffle;
    case HookKind::kScheduleWaiter:
      return HookSite::kScheduleWaiter;
    case HookKind::kLockAcquire:
      return HookSite::kLockAcquire;
    case HookKind::kLockContended:
      return HookSite::kLockContended;
    case HookKind::kLockAcquired:
      return HookSite::kLockAcquired;
    case HookKind::kLockRelease:
      return HookSite::kLockRelease;
    case HookKind::kRwMode:
      return HookSite::kRwMode;
  }
  return 0;
}

// Calls per hook kind, one map slot each, so BPF programs and raw table
// functions count alike. Every program below returns 0: no move, no skip, no
// park, neutral mode.
struct Calls {
  std::shared_ptr<ArrayMap> map =
      std::make_shared<ArrayMap>("calls", sizeof(std::uint64_t), kNumHookKinds);

  std::atomic_ref<std::uint64_t> operator[](HookKind kind) {
    return std::atomic_ref<std::uint64_t>(*static_cast<std::uint64_t*>(
        map->SlotAt(static_cast<std::uint32_t>(kind))));
  }
  void Reset() {
    for (int k = 0; k < kNumHookKinds; ++k) {
      (*this)[static_cast<HookKind>(k)].store(0);
    }
  }
};

void Bump(void* calls, HookKind kind) {
  (*static_cast<Calls*>(calls))[kind].fetch_add(1);
}

// A spec with a counting program at every kind whose bit is in `bits`: BPF,
// except at cmp_node, whose programs must write no map (the cmp-node-pure
// lint). The BPF programs read what the timing bits in `bits` are derived
// from: each calls get_cs_ewma_ns under kTrackHoldTime, and each decision
// program loads its waiter's wait_ns (offset 0 of every waiter context)
// under kTrackWaitTime. The cmp_node program is precompiled and declares
// that it reads no context field; AddNative's would read everything.
PolicySpec CountingSpec(Calls& calls, std::uint32_t bits) {
  PolicySpec spec;
  spec.name = "counting";
  spec.maps.push_back(calls.map);
  for (int k = 0; k < kNumHookKinds; ++k) {
    const auto kind = static_cast<HookKind>(k);
    if ((bits & BitOf(kind)) == 0) {
      continue;
    }
    if (kind == HookKind::kCmpNode) {
      Program program;
      program.name = HookKindName(kind);
      program.ctx_desc = &DescriptorFor(kind);
      program.native = [](void* data, void*) {
        Bump(data, HookKind::kCmpNode);
        return std::uint64_t{0};
      };
      program.native_data = &calls;
      EXPECT_TRUE(spec.AddProgram(kind, std::move(program)).ok());
      continue;
    }
    const bool decision = kind == HookKind::kCmpNode ||
                          kind == HookKind::kSkipShuffle ||
                          kind == HookKind::kScheduleWaiter;
    std::string source;
    if (decision && (bits & HookSite::kTrackWaitTime) != 0) {
      source += "ldxdw r2, [r1+0]\n";
    }
    if ((bits & HookSite::kTrackHoldTime) != 0) {
      source += "call get_cs_ewma_ns\n";
    }
    source += "stw [r10-4], " + std::to_string(k) + R"(
      mov r1, 0
      mov r2, r10
      add r2, -4
      call map_lookup_elem
      jeq r0, 0, out
      mov r2, 1
      xadddw [r0+0], r2
    out:
      mov r0, 0
      exit
    )";
    auto program = AssembleProgram(HookKindName(kind), source,
                                   &DescriptorFor(kind), {calls.map.get()});
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    if (program.ok()) {
      EXPECT_TRUE(spec.AddProgram(kind, std::move(*program)).ok());
    }
  }
  return spec;
}

template <HookKind kKind>
void CountTap(void* calls, std::uint64_t, const TapStamps&) {
  Bump(calls, kKind);
}

// A raw table with a counting function in every slot whose bit is in `bits`.
HookTable CountingTable(Calls& calls, std::uint32_t bits) {
  HookTable table;
  table.user_data = &calls;
  if ((bits & HookSite::kCmpNode) != 0) {
    table.cmp_node = [](void* ud, const ShflWaiterView&,
                        const ShflWaiterView&) {
      Bump(ud, HookKind::kCmpNode);
      return false;
    };
  }
  if ((bits & HookSite::kSkipShuffle) != 0) {
    table.skip_shuffle = [](void* ud, const ShflWaiterView&) {
      Bump(ud, HookKind::kSkipShuffle);
      return false;
    };
  }
  if ((bits & HookSite::kScheduleWaiter) != 0) {
    table.schedule_waiter = [](void* ud, const ShflWaiterView&,
                               std::uint32_t) {
      Bump(ud, HookKind::kScheduleWaiter);
      return false;
    };
  }
  if ((bits & HookSite::kLockAcquire) != 0) {
    table.lock_acquire = CountTap<HookKind::kLockAcquire>;
  }
  if ((bits & HookSite::kLockContended) != 0) {
    table.lock_contended = CountTap<HookKind::kLockContended>;
  }
  if ((bits & HookSite::kLockAcquired) != 0) {
    table.lock_acquired = CountTap<HookKind::kLockAcquired>;
  }
  if ((bits & HookSite::kLockRelease) != 0) {
    table.lock_release = CountTap<HookKind::kLockRelease>;
  }
  if ((bits & HookSite::kRwMode) != 0) {
    table.rw_mode = [](void* ud) {
      Bump(ud, HookKind::kRwMode);
      return static_cast<std::uint32_t>(RwMode::kNeutral);
    };
  }
  table.track_hold_time = (bits & HookSite::kTrackHoldTime) != 0;
  table.track_wait_time = (bits & HookSite::kTrackWaitTime) != 0;
  return table;
}

// After every install the site's mask holds exactly the filled bits, and
// each slot the family fires runs if and only if it is filled: a missing bit
// would silence a filled slot, a stale one would show in the mask.
TYPED_TEST(HookSiteTest, MaskHoldsExactlyTheFilledSlots) {
  using F = Family<TypeParam>;
  Concord& concord = Concord::Global();
  const std::uint64_t id = F::Register(this->lock_);
  HookSite& site = this->lock_.hook_site();
  Calls calls;

  std::uint32_t every_slot = F::kTimingBits;
  for (HookKind kind : F::kFired) {
    every_slot |= BitOf(kind);
  }
  auto check = [&](std::uint32_t filled, const char* step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(site.mask(), filled);
    calls.Reset();
    F::Exercise(this->lock_, filled, [&] {
      for (HookKind kind : F::kFired) {
        if ((filled & BitOf(kind)) != 0 && calls[kind].load() == 0) {
          return false;
        }
      }
      return true;
    });
    for (HookKind kind : F::kFired) {
      EXPECT_EQ(calls[kind].load() > 0, (filled & BitOf(kind)) != 0)
          << HookKindName(kind);
    }
  };

  EXPECT_EQ(site.mask(), 0u);
  ASSERT_TRUE(concord.Attach(id, CountingSpec(calls, every_slot)).ok());
  check(every_slot, "every slot and every timing bit");

  const std::uint32_t one_slot = BitOf(F::kOneSlot);
  ASSERT_TRUE(concord.Attach(id, CountingSpec(calls, one_slot)).ok());
  check(one_slot, "one slot");

  ASSERT_TRUE(concord.Detach(id).ok());
  check(0, "detached");

  // A raw table: every slot but lock_acquire, no hold-time accounting.
  // (On ShflLock it keeps the wait stamps it asks for.)
  const std::uint32_t raw_bits =
      every_slot & ~(HookSite::kLockAcquire | HookSite::kTrackHoldTime);
  const HookTable raw = CountingTable(calls, raw_bits);
  EXPECT_EQ(site.Install(&raw), nullptr);
  check(raw_bits, "raw table");
  EXPECT_EQ(site.Install(nullptr), &raw);
  Rcu::Global().Synchronize();
  EXPECT_EQ(site.mask(), 0u);
}

// The publish contract: an acquisition that starts after Attach (or Detach)
// returns runs the new table. A worker cycles the lock; the main thread
// attaches counting taps or detaches them, then publishes the round. The
// worker's first cycle after it reads a new round must fire the taps exactly
// when that round attached them.
TYPED_TEST(HookSiteTest, AcquisitionAfterAttachReturnsRunsTheNewTable) {
  constexpr std::uint32_t kRounds = 100;  // one attach and one detach each
  Concord& concord = Concord::Global();
  const std::uint64_t id = Family<TypeParam>::Register(this->lock_);
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> releases{0};
  std::atomic<std::uint32_t> published{0};
  std::atomic<std::uint32_t> checked{0};
  std::atomic<std::uint32_t> misses{0};
  std::atomic<bool> stop{false};

  std::thread worker([&] {
    std::uint32_t seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint32_t round = published.load(std::memory_order_acquire);
      const std::uint64_t acquires_before = acquires.load();
      const std::uint64_t releases_before = releases.load();
      Family<TypeParam>::Cycle(this->lock_);
      if (round == seen) {
        continue;
      }
      const bool attached = round % 2 == 1;
      if ((acquires.load() != acquires_before) != attached ||
          (releases.load() != releases_before) != attached) {
        misses.fetch_add(1);
      }
      seen = round;
      checked.store(round, std::memory_order_release);
    }
  });

  for (std::uint32_t round = 1; round <= 2 * kRounds; ++round) {
    Status status;
    if (round % 2 == 1) {
      PolicySpec spec;
      spec.name = "contract";
      spec.AddNative(HookKind::kLockAcquire, "acquire", CountCalls, &acquires);
      spec.AddNative(HookKind::kLockRelease, "release", CountCalls, &releases);
      status = concord.Attach(id, std::move(spec));
    } else {
      status = concord.Detach(id);
    }
    EXPECT_TRUE(status.ok()) << "round " << round;
    published.store(round, std::memory_order_release);
    const bool answered = AwaitCondition(
        [&] { return checked.load(std::memory_order_acquire) == round; });
    EXPECT_TRUE(answered) << "round " << round;
    if (!status.ok() || !answered) {
      break;
    }
  }
  stop.store(true, std::memory_order_release);
  worker.join();
  EXPECT_EQ(misses.load(), 0u);
}

}  // namespace
}  // namespace concord
