// The rw_mode cache: a BravoLock whose rw_mode chain is map-pure reuses the
// chain's answer until the decision epoch moves (src/sync/policy_hooks.h,
// src/base/decision_epoch.h). These tests pin the publish rule (a map write
// or an install that has returned is seen by the next read on every thread),
// that a cached chain runs once per epoch, which chains are never cached,
// and the verifier facts the install reads. No test uses more than three
// threads or asserts a time.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/trace.h"
#include "src/bpf/assembler.h"
#include "src/bpf/jit/jit.h"
#include "src/bpf/maps.h"
#include "src/bpf/verifier.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/rcu/rcu.h"
#include "src/sync/bravo.h"
#include "src/topology/topology.h"

namespace concord {
namespace {

using Bravo = BravoLock<NeutralRwLock>;

// rw_switch's program (src/concord/policies.cc): the mode is knob[0].
constexpr char kKnobLookup[] = R"(
    stw [r10-4], 0
    mov r1, 0
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jeq r0, 0, dflt
    ldxdw r0, [r0+0]
    jgt r0, 2, dflt
    exit
  dflt:
    mov r0, 0
    exit
)";

// Stores reader bias into knob[0] from the program side.
constexpr char kKnobStore[] = R"(
    stw [r10-4], 0
    mov r1, 0
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jeq r0, 0, out
    mov r2, 1
    stxdw [r0+0], r2
  out:
    mov r0, 0
    exit
)";

// Reads the task id, then answers neutral, so a kFirstNonZero chain goes on
// to its next program.
constexpr char kTaskIdProgram[] = R"(
    call get_current_task_id
    mov r0, 0
    exit
)";

std::uint64_t Knob(RwMode mode) { return static_cast<std::uint64_t>(mode); }

// The rw_mode policy_dispatch events recorded for `lock_id`: one per chain
// run on a traced lock.
std::size_t RwModeDispatches(std::uint64_t lock_id) {
  std::size_t n = 0;
  for (const TraceEvent& event : TraceRegistry::Global().Collect()) {
    if (event.kind == TraceEventKind::kPolicyDispatch &&
        event.lock_id == lock_id &&
        event.arg == static_cast<std::uint64_t>(HookKind::kRwMode)) {
      ++n;
    }
  }
  return n;
}

// A thread that takes one read pair each time it is asked, so each of its
// reads starts after whatever the asking thread did before asking.
class ReaderThread {
 public:
  explicit ReaderThread(Bravo& lock)
      : thread_([this, &lock] {
          std::uint32_t done = 0;
          for (;;) {
            std::uint32_t asked;
            while ((asked = asked_.load(std::memory_order_acquire)) == done) {
              std::this_thread::yield();
            }
            if (asked == kStop) {
              return;
            }
            lock.ReadLock();
            lock.ReadUnlock();
            done = asked;
            done_.store(done, std::memory_order_release);
          }
        }) {}

  ~ReaderThread() {
    asked_.store(kStop, std::memory_order_release);
    thread_.join();
  }

  void ReadOnce() {
    const std::uint32_t n = asked_.load(std::memory_order_relaxed) + 1;
    asked_.store(n, std::memory_order_release);
    while (done_.load(std::memory_order_acquire) != n) {
      std::this_thread::yield();
    }
  }

 private:
  static constexpr std::uint32_t kStop = ~0u;
  std::atomic<std::uint32_t> asked_{0};
  std::atomic<std::uint32_t> done_{0};
  std::thread thread_;
};

class RwModeCacheTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Concord::Global().ResetForTest();
    TraceRegistry::Global().ResetForTest();
  }

  // One read pair on this thread; whether it took the fast path.
  bool ReadPairIsFast() {
    const std::uint64_t fast = lock_.fast_reads();
    lock_.ReadLock();
    lock_.ReadUnlock();
    return lock_.fast_reads() != fast;
  }

  std::uint64_t RegisterTraced() {
    const std::uint64_t id =
        Concord::Global().RegisterRwLock(lock_, "cached", "t");
    EXPECT_TRUE(Concord::Global().EnableTracing(id).ok());
    TraceRegistry::Global().ClearEvents();
    return id;
  }

  Bravo lock_;
};

// A knob write that has returned is seen by the next read on every thread:
// each thread's first read after the write takes the written mode's path.
TEST_F(RwModeCacheTest, KnobWriteThatReturnedIsSeenByTheNextReadOnEveryThread) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterRwLock(lock_, "rw", "t");
  auto policy = MakeRwSwitchPolicy(RwMode::kNeutral);
  ASSERT_TRUE(policy.ok());
  auto knob = policy->knobs;
  ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());

  ReaderThread first(lock_);
  ReaderThread second(lock_);
  first.ReadOnce();  // both read, and cache, neutral
  second.ReadOnce();
  for (RwMode mode :
       {RwMode::kReaderBias, RwMode::kWriterOnly, RwMode::kNeutral}) {
    ASSERT_TRUE(knob->UpdateTyped(std::uint32_t{0}, Knob(mode)).ok());
    for (ReaderThread* reader : {&first, &second}) {
      SCOPED_TRACE(static_cast<int>(mode));
      const std::uint64_t fast = lock_.fast_reads();
      const std::uint64_t slow = lock_.slow_reads();
      reader->ReadOnce();
      const bool biased = mode == RwMode::kReaderBias;
      EXPECT_EQ(lock_.fast_reads() - fast, biased ? 1u : 0u);
      EXPECT_EQ(lock_.slow_reads() - slow, biased ? 0u : 1u);
    }
  }
}

// A cached chain runs once per epoch: 100 read pairs on a traced lock record
// one policy_dispatch, and after a knob write 100 more record one more.
TEST_F(RwModeCacheTest, CachedChainRunsOncePerEpoch) {
  const std::uint64_t id = RegisterTraced();
  auto policy = MakeRwSwitchPolicy(RwMode::kReaderBias);
  ASSERT_TRUE(policy.ok());
  auto knob = policy->knobs;
  ASSERT_TRUE(Concord::Global().Attach(id, std::move(policy->spec)).ok());
  ASSERT_NE(lock_.hook_site().mask() & HookSite::kCacheRwMode, 0u);

  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ReadPairIsFast());
  }
  EXPECT_EQ(RwModeDispatches(id), 1u);

  ASSERT_TRUE(knob->UpdateTyped(std::uint32_t{0}, Knob(RwMode::kNeutral)).ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(ReadPairIsFast());
  }
  EXPECT_EQ(RwModeDispatches(id), 2u);
}

// Chains whose answer is not a function of map contents alone, or whose
// maps a program may write, run on every read.
enum class Uncacheable {
  kPerCpuLookup,        // the knob is a per-CPU array
  kTaskIdCall,          // a chain program calls get_current_task_id
  kNative,              // a precompiled rw_mode program
  kProgramWritableMap,  // a program verified after the attach writes the knob
};

std::string UncacheableName(
    const ::testing::TestParamInfo<Uncacheable>& info) {
  switch (info.param) {
    case Uncacheable::kPerCpuLookup:
      return "PerCpuLookup";
    case Uncacheable::kTaskIdCall:
      return "TaskIdCall";
    case Uncacheable::kNative:
      return "Native";
    case Uncacheable::kProgramWritableMap:
      return "ProgramWritableMap";
  }
  return "Unknown";
}

class RwModeUncacheableTest : public RwModeCacheTest,
                              public ::testing::WithParamInterface<Uncacheable> {
};

// Adds the knob lookup over `knob` to `spec`'s rw_mode chain.
void AddKnobLookup(PolicySpec& spec, std::shared_ptr<BpfMap> knob) {
  auto program = AssembleProgram("knob", kKnobLookup,
                                 &DescriptorFor(HookKind::kRwMode),
                                 {knob.get()});
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_TRUE(spec.AddProgram(HookKind::kRwMode, std::move(*program)).ok());
  spec.maps.push_back(std::move(knob));
}

TEST_P(RwModeUncacheableTest, ChainRunsOnEveryRead) {
  const std::uint64_t id = RegisterTraced();
  PolicySpec spec;
  spec.name = "uncacheable";
  std::shared_ptr<BpfMap> knob;
  switch (GetParam()) {
    case Uncacheable::kPerCpuLookup:
      knob = std::make_shared<PerCpuArrayMap>(
          "knob", sizeof(std::uint64_t), 1,
          MachineTopology::Global().total_cpus());
      AddKnobLookup(spec, knob);
      break;
    case Uncacheable::kTaskIdCall: {
      auto program = AssembleProgram("task_id", kTaskIdProgram,
                                     &DescriptorFor(HookKind::kRwMode));
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      ASSERT_TRUE(spec.AddProgram(HookKind::kRwMode, std::move(*program)).ok());
      knob = std::make_shared<ArrayMap>("knob", sizeof(std::uint64_t), 1);
      AddKnobLookup(spec, knob);
      break;
    }
    case Uncacheable::kNative:
      spec.AddNative(HookKind::kRwMode, "neutral", [](void*, void*) {
        return Knob(RwMode::kNeutral);
      });
      break;
    case Uncacheable::kProgramWritableMap:
      knob = std::make_shared<ArrayMap>("knob", sizeof(std::uint64_t), 1);
      AddKnobLookup(spec, knob);
      break;
  }
  ASSERT_TRUE(Concord::Global().Attach(id, std::move(spec)).ok());

  Program writer;
  if (GetParam() == Uncacheable::kProgramWritableMap) {
    // Cacheable as attached: the first read caches neutral.
    ASSERT_NE(lock_.hook_site().mask() & HookSite::kCacheRwMode, 0u);
    EXPECT_FALSE(ReadPairIsFast());
    EXPECT_FALSE(ReadPairIsFast());
    ASSERT_EQ(RwModeDispatches(id), 1u);
    TraceRegistry::Global().ClearEvents();
    auto program = AssembleProgram("writer", kKnobStore,
                                   &DescriptorFor(HookKind::kRwMode),
                                   {knob.get()});
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    writer = std::move(*program);
    ASSERT_TRUE(Verifier::Verify(writer).ok());
    EXPECT_TRUE(knob->program_writable());
  } else {
    EXPECT_EQ(lock_.hook_site().mask() & HookSite::kCacheRwMode, 0u);
  }

  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(ReadPairIsFast());
  }
  EXPECT_EQ(RwModeDispatches(id), 10u);

  if (GetParam() == Uncacheable::kProgramWritableMap) {
    // A program-side store, with no write through the map API, is seen by
    // the next read.
    RwModeCtx ctx{id};
    RunPolicyProgram(writer, &ctx);
    EXPECT_TRUE(ReadPairIsFast());
    EXPECT_EQ(RwModeDispatches(id), 11u);
  }
}

INSTANTIATE_TEST_SUITE_P(RwModeCacheTest, RwModeUncacheableTest,
                         ::testing::Values(Uncacheable::kPerCpuLookup,
                                           Uncacheable::kTaskIdCall,
                                           Uncacheable::kNative,
                                           Uncacheable::kProgramWritableMap),
                         UncacheableName);

// An install invalidates the cache: a reader-bias answer cached under the
// old table is not reused once a neutral policy's Attach has returned. The
// neutral policy has no map, so only the install can move the epoch.
TEST_F(RwModeCacheTest, InstallInvalidates) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterRwLock(lock_, "rw", "t");
  auto policy = MakeRwSwitchPolicy(RwMode::kReaderBias);
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());
  EXPECT_TRUE(ReadPairIsFast());
  EXPECT_TRUE(ReadPairIsFast());

  PolicySpec neutral;
  neutral.name = "neutral";
  auto program = AssembleProgram("neutral", "mov r0, 0\nexit\n",
                                 &DescriptorFor(HookKind::kRwMode));
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(neutral.AddProgram(HookKind::kRwMode, std::move(*program)).ok());
  ASSERT_TRUE(concord.Attach(id, std::move(neutral)).ok());
  ASSERT_NE(lock_.hook_site().mask() & HookSite::kCacheRwMode, 0u);
  EXPECT_FALSE(ReadPairIsFast());
}

// A write during a chain run is not lost. A raw table, flagged cacheable,
// whose rw_mode writes the knob through the map API (bumping the epoch) in
// its first run and answers what the knob held before: that answer is
// stored under the epoch loaded before the run, so the next read runs the
// function again and takes the written mode.
TEST_F(RwModeCacheTest, WriteDuringAChainRunIsNotLost) {
  struct Source {
    ArrayMap map{"knob", sizeof(std::uint64_t), 1};
    std::atomic<int> runs{0};
  } knob;
  HookTable table;
  table.user_data = &knob;
  table.cache_rw_mode = true;
  table.rw_mode = [](void* data) {
    auto* k = static_cast<Source*>(data);
    std::uint64_t before = 0;
    EXPECT_TRUE(k->map.LookupTyped(std::uint32_t{0}, &before));
    if (k->runs.fetch_add(1) == 0) {
      EXPECT_TRUE(
          k->map.UpdateTyped(std::uint32_t{0}, Knob(RwMode::kReaderBias))
              .ok());
    }
    return static_cast<std::uint32_t>(before);
  };
  lock_.hook_site().Install(&table);

  EXPECT_FALSE(ReadPairIsFast());  // the pre-write answer, used once
  EXPECT_EQ(knob.runs.load(), 1);
  EXPECT_TRUE(ReadPairIsFast());  // ran again: the written answer
  EXPECT_EQ(knob.runs.load(), 2);
  EXPECT_TRUE(ReadPairIsFast());  // cached now
  EXPECT_EQ(knob.runs.load(), 2);

  lock_.hook_site().Install(nullptr);
  Rcu::Global().Synchronize();
}

// The verifier's facts, which decide whether a chain may be cached.
TEST_F(RwModeCacheTest, VerifierRecordsWritesMapAndMapPure) {
  ArrayMap array("array", sizeof(std::uint64_t), 1);
  PerCpuArrayMap per_cpu("per_cpu", sizeof(std::uint64_t), 1,
                         MachineTopology::Global().total_cpus());
  const std::string lookup = R"(
    stw [r10-4], 0
    mov r1, 0
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jeq r0, 0, out
  )";
  struct Case {
    const char* name;
    std::string source;
    BpfMap* map;
    bool writes_map;
    bool map_pure;
  };
  const Case cases[] = {
      {"lookup only", kKnobLookup, &array, false, true},
      {"map_update_elem", R"(
          stw [r10-4], 0
          stdw [r10-16], 1
          mov r1, 0
          mov r2, r10
          add r2, -4
          mov r3, r10
          add r3, -16
          call map_update_elem
          mov r0, 0
          exit
        )",
       &array, true, false},
      {"stxdw into a map value",
       lookup + "mov r2, 1\nstxdw [r0+0], r2\nout:\nmov r0, 0\nexit\n", &array,
       true, false},
      {"xadddw into a map value",
       lookup + "mov r2, 1\nxadddw [r0+0], r2\nout:\nmov r0, 0\nexit\n",
       &array, true, false},
      {"per-CPU lookup", kKnobLookup, &per_cpu, false, false},
      {"get_current_task_id", kTaskIdProgram, &array, false, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto program = AssembleProgram(c.name, c.source,
                                   &DescriptorFor(HookKind::kRwMode), {c.map});
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    ASSERT_TRUE(Verifier::Verify(*program).ok());
    EXPECT_EQ(program->writes_map, c.writes_map);
    EXPECT_EQ(program->map_pure, c.map_pure);
  }
}

}  // namespace
}  // namespace concord
