#include "src/concord/trace_export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/base/json.h"
#include "src/base/trace.h"
#include "src/concord/concord.h"
#include "src/concord/policies.h"
#include "src/sync/bravo.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

TraceEvent Ev(std::uint64_t ts_ns, std::uint64_t lock_id, TraceEventKind kind,
              std::uint32_t tid, std::uint64_t arg = 0) {
  TraceEvent event;
  event.ts_ns = ts_ns;
  event.lock_id = lock_id;
  event.kind = kind;
  event.tid = tid;
  event.arg = arg;
  return event;
}

TEST(ChromeTraceJsonTest, EmitsMatchedSpansAndInstants) {
  const std::vector<TraceEvent> events = {
      Ev(100, 5, TraceEventKind::kAcquire, 1),
      Ev(120, 5, TraceEventKind::kPark, 1, 64),
      Ev(150, 5, TraceEventKind::kAcquired, 1),
      Ev(400, 5, TraceEventKind::kRelease, 1),
  };
  const std::string json = ChromeTraceJson(events, {{5, "renames"}});
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << json;
  const JsonValue* trace_events = parsed->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->IsArray());

  const JsonValue* wait = nullptr;
  const JsonValue* hold = nullptr;
  const JsonValue* park = nullptr;
  for (const JsonValue& event : trace_events->array) {
    const JsonValue* cat = event.Find("cat");
    if (cat == nullptr) {
      continue;  // thread_name metadata
    }
    if (cat->string_value == "wait") {
      wait = &event;
    } else if (cat->string_value == "hold") {
      hold = &event;
    } else if (event.Find("name")->string_value == "renames park") {
      park = &event;
    }
  }
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(hold, nullptr);
  ASSERT_NE(park, nullptr);

  EXPECT_EQ(wait->Find("name")->string_value, "renames wait");
  EXPECT_EQ(wait->Find("ph")->string_value, "X");
  EXPECT_DOUBLE_EQ(wait->Find("ts")->number_value, 0.1);    // 100ns in us
  EXPECT_DOUBLE_EQ(wait->Find("dur")->number_value, 0.05);  // 50ns
  EXPECT_DOUBLE_EQ(hold->Find("ts")->number_value, 0.15);
  EXPECT_DOUBLE_EQ(hold->Find("dur")->number_value, 0.25);
  EXPECT_EQ(park->Find("ph")->string_value, "i");
  EXPECT_DOUBLE_EQ(park->Find("args")->Find("arg")->number_value, 64.0);
}

TEST(ChromeTraceJsonTest, UnnamedLocksGetNumericLabels) {
  const std::vector<TraceEvent> events = {
      Ev(10, 42, TraceEventKind::kWake, 1),
  };
  auto parsed = ParseJson(ChromeTraceJson(events));
  ASSERT_TRUE(parsed.ok());
  const auto& array = parsed->Find("traceEvents")->array;
  ASSERT_GE(array.size(), 1u);
  EXPECT_EQ(array[0].Find("name")->string_value, "lock42 wake");
}

// End-to-end: a real contended ShflLock traced through the Concord facade
// must yield a parseable Chrome trace with matched wait and hold spans.
class TraceExportE2ETest : public ::testing::Test {
 protected:
  void SetUp() override { TraceRegistry::Global().ResetForTest(); }
  void TearDown() override { Concord::Global().ResetForTest(); }

  ShflLock lock_;
};

TEST_F(TraceExportE2ETest, ContendedRunProducesMatchedSpans) {
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock_, "hot", "e2e");
  ASSERT_TRUE(concord.EnableTracing(id).ok());
  ASSERT_FALSE(concord.EnableTracing(id + 999).ok());  // unknown lock id

  lock_.Lock();
  std::thread waiter([&] {
    lock_.Lock();  // contends until the main thread releases
    lock_.Unlock();
  });
  // Hold until the recorder has seen the waiter hit the slow path, then keep
  // holding a little longer so the measured wait is clearly nonzero.
  const auto contended = [&] {
    for (const TraceEvent& event : concord.TraceEvents()) {
      if (event.kind == TraceEventKind::kContended) {
        return true;
      }
    }
    return false;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!contended() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  lock_.Unlock();
  waiter.join();
  ASSERT_TRUE(contended()) << "the waiter never recorded contended";
  for (int i = 0; i < 3; ++i) {
    lock_.Lock();
    lock_.Unlock();
  }

  const std::vector<TraceEvent> events = concord.TraceEvents();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns) << "not ts-sorted";
  }

  std::size_t acquired = 0;
  std::size_t released = 0;
  std::size_t contended_events = 0;
  for (const TraceEvent& event : events) {
    EXPECT_EQ(event.lock_id, id);
    acquired += event.kind == TraceEventKind::kAcquired ? 1 : 0;
    released += event.kind == TraceEventKind::kRelease ? 1 : 0;
    contended_events += event.kind == TraceEventKind::kContended ? 1 : 0;
  }
  EXPECT_EQ(acquired, 5u);
  EXPECT_EQ(released, 5u);
  EXPECT_GE(contended_events, 1u);

  const std::string json = concord.TraceChromeJson();
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << json.substr(0, 200);
  std::size_t waits = 0;
  std::size_t holds = 0;
  double max_wait_us = 0;
  for (const JsonValue& event : parsed->Find("traceEvents")->array) {
    const JsonValue* cat = event.Find("cat");
    if (cat == nullptr) {
      continue;
    }
    if (cat->string_value == "wait" || cat->string_value == "hold") {
      EXPECT_EQ(event.Find("ph")->string_value, "X");
      EXPECT_GE(event.Find("dur")->number_value, 0.0);
      EXPECT_EQ(event.Find("name")->string_value,
                cat->string_value == "wait" ? "hot wait" : "hot hold");
      waits += cat->string_value == "wait" ? 1 : 0;
      holds += cat->string_value == "hold" ? 1 : 0;
      if (cat->string_value == "wait") {
        max_wait_us = std::max(max_wait_us, event.Find("dur")->number_value);
      }
    }
  }
  EXPECT_EQ(waits, 5u);
  EXPECT_EQ(holds, 5u);
  // The contended waiter's wait dominates: it slept behind a ~5ms hold.
  EXPECT_GE(max_wait_us, 1'000.0);
}

// ShflLock's release tap records `release`, and it fires before the wake of
// a parked waiter, so a blocking handover reads release, then wake.
TEST_F(TraceExportE2ETest, BlockingReleaseRecordsReleaseBeforeWake) {
  Concord& concord = Concord::Global();
  lock_.SetBlocking(true);
  const std::uint64_t id = concord.RegisterShflLock(lock_, "blocking", "e2e");
  ASSERT_TRUE(concord.EnableTracing(id).ok());
  lock_.Lock();
  std::thread waiter([&] {
    lock_.Lock();
    lock_.Unlock();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (lock_.parks() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  lock_.Unlock();
  waiter.join();
  ASSERT_GE(lock_.parks(), 1u);

  std::vector<TraceEventKind> holder;
  const std::uint32_t holder_tid = concord.TraceEvents().front().tid;
  for (const TraceEvent& event : concord.TraceEvents()) {
    if (event.tid == holder_tid) {
      holder.push_back(event.kind);
    }
  }
  EXPECT_EQ(holder, (std::vector<TraceEventKind>{
                        TraceEventKind::kAcquire, TraceEventKind::kAcquired,
                        TraceEventKind::kRelease, TraceEventKind::kWake}));
}

// The readers-writer family records its lock events through the same
// HookSite taps as ShflLock: a traced BravoLock's read pair and write pair
// each record acquire, acquired and release under the lock's id, and the
// pairs taken while it is not traced record nothing.
TEST_F(TraceExportE2ETest, BravoLockRecordsReadAndWritePairs) {
  Concord& concord = Concord::Global();
  BravoLock<NeutralRwLock> rw;
  const std::uint64_t id = concord.RegisterRwLock(rw, "rw", "e2e");
  rw.ReadLock();
  rw.ReadUnlock();
  ASSERT_TRUE(concord.EnableTracing(id).ok());
  rw.ReadLock();
  rw.ReadUnlock();
  rw.WriteLock();
  rw.WriteUnlock();
  ASSERT_TRUE(concord.DisableTracing(id).ok());
  rw.WriteLock();
  rw.WriteUnlock();

  std::vector<TraceEventKind> kinds;
  for (const TraceEvent& event : concord.TraceEvents()) {
    EXPECT_EQ(event.lock_id, id);
    kinds.push_back(event.kind);
  }
  const std::vector<TraceEventKind> pair = {TraceEventKind::kAcquire,
                                            TraceEventKind::kAcquired,
                                            TraceEventKind::kRelease};
  std::vector<TraceEventKind> expected = pair;
  expected.insert(expected.end(), pair.begin(), pair.end());
  EXPECT_EQ(kinds, expected);
  ASSERT_TRUE(concord.Unregister(id).ok());
}

TEST(MapDumpJsonTest, PerCpuArrayGroupsLanesPerKey) {
  PerCpuArrayMap map("counters", sizeof(std::uint64_t), 2, /*num_cpus=*/3);
  for (std::uint32_t cpu = 0; cpu < 3; ++cpu) {
    const std::uint64_t v = cpu + 1;
    std::memcpy(map.SlotAt(cpu, 0), &v, sizeof(v));
  }
  JsonWriter writer;
  AppendMapDumpJson(writer, map);
  auto parsed = ParseJson(writer.str());
  ASSERT_TRUE(parsed.ok()) << writer.str();
  EXPECT_EQ(parsed->Find("name")->string_value, "counters");
  EXPECT_EQ(parsed->Find("type")->string_value, "percpu_array");
  EXPECT_DOUBLE_EQ(parsed->Find("num_cpus")->number_value, 3.0);
  const JsonValue* entries = parsed->Find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->array.size(), 2u);  // one object per index
  const JsonValue& first = entries->array[0];
  ASSERT_EQ(first.Find("values")->array.size(), 3u);  // one lane per CPU
  EXPECT_DOUBLE_EQ(first.Find("values")->array[0].number_value, 1.0);
  EXPECT_DOUBLE_EQ(first.Find("values")->array[2].number_value, 3.0);
  EXPECT_DOUBLE_EQ(first.Find("sum")->number_value, 6.0);
  EXPECT_DOUBLE_EQ(entries->array[1].Find("sum")->number_value, 0.0);
}

TEST(MapDumpJsonTest, NarrowValuesDumpAsHex) {
  HashMap map("small", sizeof(std::uint64_t), 4, 8);  // 4-byte values
  ASSERT_TRUE(map.UpdateTyped(std::uint64_t{1}, std::uint32_t{0xabcd}).ok());
  JsonWriter writer;
  AppendMapDumpJson(writer, map);
  auto parsed = ParseJson(writer.str());
  ASSERT_TRUE(parsed.ok()) << writer.str();
  const JsonValue* entries = parsed->Find("entries");
  ASSERT_EQ(entries->array.size(), 1u);
  const JsonValue& entry = entries->array[0];
  // Sub-8-byte values can't be summed as u64 lanes: hex strings, no sum.
  EXPECT_EQ(entry.Find("values")->array[0].string_value, "0xcdab0000");
  EXPECT_EQ(entry.Find("sum"), nullptr);
}

TEST(MapDumpJsonTest, StatsJsonCarriesPolicyMaps) {
  static ShflLock lock;
  Concord& concord = Concord::Global();
  const std::uint64_t id = concord.RegisterShflLock(lock, "dump_me", "export");
  ASSERT_TRUE(concord.EnableProfiling(id).ok());
  auto policy = MakeBpfProfilerPolicy();
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(concord.Attach(id, std::move(policy->spec)).ok());
  for (int i = 0; i < 3; ++i) {
    lock.Lock();
    lock.Unlock();
  }

  auto parsed = ParseJson(concord.StatsJson("dump_me"));
  ASSERT_TRUE(parsed.ok());
  const JsonValue& entry = parsed->Find("locks")->array[0];
  const JsonValue* maps = entry.Find("policy_maps");
  ASSERT_NE(maps, nullptr) << "attached policy's maps must be dumped";
  ASSERT_EQ(maps->array.size(), 1u);
  EXPECT_EQ(maps->array[0].Find("name")->string_value, "tap_counters");
  // Slot 0 counts kLockAcquire taps: summed across CPUs it equals the
  // acquisitions made above.
  EXPECT_DOUBLE_EQ(
      maps->array[0].Find("entries")->array[0].Find("sum")->number_value, 3.0);

  auto dump = concord.MapDumpJson("dump_me");
  ASSERT_TRUE(dump.ok());
  auto dump_parsed = ParseJson(*dump);
  ASSERT_TRUE(dump_parsed.ok());
  const JsonValue& dumped = dump_parsed->Find("locks")->array[0];
  EXPECT_EQ(dumped.Find("policy")->string_value, "bpf_profiler");
  ASSERT_EQ(dumped.Find("maps")->array.size(), 1u);

  // Filtering by name, and the not-found contract.
  auto filtered = concord.MapDumpJson("dump_me", "no_such_map");
  ASSERT_TRUE(filtered.ok());
  auto filtered_parsed = ParseJson(*filtered);
  ASSERT_TRUE(filtered_parsed.ok());
  EXPECT_EQ(
      filtered_parsed->Find("locks")->array[0].Find("maps")->array.size(), 0u);
  EXPECT_EQ(concord.MapDumpJson("no_such_lock").status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(concord.Unregister(id).ok());
}

}  // namespace
}  // namespace concord
