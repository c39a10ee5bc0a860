#include "src/bpf/maps.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

namespace concord {
namespace {

TEST(ArrayMapTest, SlotsStartZeroed) {
  ArrayMap map("m", sizeof(std::uint64_t), 4);
  std::uint64_t value = 1;
  ASSERT_TRUE(map.LookupTyped(std::uint32_t{0}, &value));
  EXPECT_EQ(value, 0u);
}

TEST(ArrayMapTest, UpdateLookupRoundTrip) {
  ArrayMap map("m", sizeof(std::uint64_t), 4);
  ASSERT_TRUE(map.UpdateTyped(std::uint32_t{2}, std::uint64_t{99}).ok());
  std::uint64_t value = 0;
  ASSERT_TRUE(map.LookupTyped(std::uint32_t{2}, &value));
  EXPECT_EQ(value, 99u);
}

TEST(ArrayMapTest, OutOfRangeLookupReturnsNull) {
  ArrayMap map("m", 8, 4);
  std::uint32_t key = 4;
  EXPECT_EQ(map.Lookup(&key), nullptr);
}

TEST(ArrayMapTest, OutOfRangeUpdateFails) {
  ArrayMap map("m", 8, 4);
  EXPECT_FALSE(map.UpdateTyped(std::uint32_t{100}, std::uint64_t{1}).ok());
}

TEST(ArrayMapTest, DeleteZeroesSlot) {
  ArrayMap map("m", sizeof(std::uint64_t), 4);
  ASSERT_TRUE(map.UpdateTyped(std::uint32_t{1}, std::uint64_t{5}).ok());
  std::uint32_t key = 1;
  ASSERT_TRUE(map.Delete(&key).ok());
  std::uint64_t value = 7;
  ASSERT_TRUE(map.LookupTyped(std::uint32_t{1}, &value));
  EXPECT_EQ(value, 0u);
}

TEST(ArrayMapTest, LookupPointerIsStable) {
  ArrayMap map("m", 8, 4);
  std::uint32_t key = 3;
  void* first = map.Lookup(&key);
  ASSERT_TRUE(map.UpdateTyped(std::uint32_t{3}, std::uint64_t{1}).ok());
  EXPECT_EQ(map.Lookup(&key), first);
}

TEST(HashMapTest, MissingKeyReturnsNull) {
  HashMap map("h", sizeof(std::uint64_t), sizeof(std::uint64_t), 16);
  std::uint64_t key = 42;
  EXPECT_EQ(map.Lookup(&key), nullptr);
}

TEST(HashMapTest, InsertLookupDelete) {
  HashMap map("h", sizeof(std::uint64_t), sizeof(std::uint64_t), 16);
  ASSERT_TRUE(map.UpdateTyped(std::uint64_t{42}, std::uint64_t{7}).ok());
  EXPECT_EQ(map.Size(), 1u);
  std::uint64_t value = 0;
  ASSERT_TRUE(map.LookupTyped(std::uint64_t{42}, &value));
  EXPECT_EQ(value, 7u);
  std::uint64_t key = 42;
  ASSERT_TRUE(map.Delete(&key).ok());
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_EQ(map.Lookup(&key), nullptr);
}

TEST(HashMapTest, UpdateOverwritesExisting) {
  HashMap map("h", 8, 8, 16);
  ASSERT_TRUE(map.UpdateTyped(std::uint64_t{1}, std::uint64_t{10}).ok());
  ASSERT_TRUE(map.UpdateTyped(std::uint64_t{1}, std::uint64_t{20}).ok());
  EXPECT_EQ(map.Size(), 1u);
  std::uint64_t value = 0;
  ASSERT_TRUE(map.LookupTyped(std::uint64_t{1}, &value));
  EXPECT_EQ(value, 20u);
}

TEST(HashMapTest, FillsToCapacityThenRejects) {
  HashMap map("h", 8, 8, 4);
  for (std::uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(map.UpdateTyped(k, k * 10).ok());
  }
  Status full = map.UpdateTyped(std::uint64_t{99}, std::uint64_t{0});
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  // Deleting frees capacity again.
  std::uint64_t key = 0;
  ASSERT_TRUE(map.Delete(&key).ok());
  EXPECT_TRUE(map.UpdateTyped(std::uint64_t{99}, std::uint64_t{0}).ok());
}

TEST(HashMapTest, DeleteMissingKeyIsNotFound) {
  HashMap map("h", 8, 8, 4);
  std::uint64_t key = 5;
  EXPECT_EQ(map.Delete(&key).code(), StatusCode::kNotFound);
}

TEST(HashMapTest, ManyKeysAllRetrievable) {
  HashMap map("h", 8, 8, 512);
  for (std::uint64_t k = 0; k < 512; ++k) {
    ASSERT_TRUE(map.UpdateTyped(k, k ^ 0xabcd).ok());
  }
  for (std::uint64_t k = 0; k < 512; ++k) {
    std::uint64_t value = 0;
    ASSERT_TRUE(map.LookupTyped(k, &value));
    EXPECT_EQ(value, k ^ 0xabcd);
  }
}

TEST(HashMapTest, StructKeysCompareByBytes) {
  struct Key {
    std::uint32_t a;
    std::uint32_t b;
  };
  HashMap map("h", sizeof(Key), 8, 16);
  ASSERT_TRUE(map.UpdateTyped(Key{1, 2}, std::uint64_t{12}).ok());
  ASSERT_TRUE(map.UpdateTyped(Key{2, 1}, std::uint64_t{21}).ok());
  std::uint64_t value = 0;
  ASSERT_TRUE(map.LookupTyped(Key{1, 2}, &value));
  EXPECT_EQ(value, 12u);
  ASSERT_TRUE(map.LookupTyped(Key{2, 1}, &value));
  EXPECT_EQ(value, 21u);
}

TEST(HashMapTest, ConcurrentMixedOpsKeepInvariant) {
  HashMap map("h", 8, 8, 1024);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      for (std::uint64_t i = 0; i < 500; ++i) {
        const std::uint64_t key = t * 1000 + (i % 100);
        ASSERT_TRUE(map.UpdateTyped(key, i).ok());
        std::uint64_t value = 0;
        ASSERT_TRUE(map.LookupTyped(key, &value));
        if (i % 3 == 0) {
          map.Delete(&key);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_LE(map.Size(), 1024u);
}

TEST(PerCpuArrayMapTest, SlotsIsolatedPerCpu) {
  PerCpuArrayMap map("p", sizeof(std::uint64_t), 2, /*num_cpus=*/4);
  // Write directly into distinct CPU slots.
  std::uint64_t v1 = 10;
  std::uint64_t v2 = 32;
  std::memcpy(map.SlotAt(0, 0), &v1, sizeof(v1));
  std::memcpy(map.SlotAt(3, 0), &v2, sizeof(v2));
  EXPECT_EQ(map.AggregateU64(0), 42u);
  EXPECT_EQ(map.AggregateU64(1), 0u);
}

TEST(PerCpuArrayMapTest, LookupUsesCurrentVcpu) {
  PerCpuArrayMap map("p", sizeof(std::uint64_t), 1, /*num_cpus=*/80);
  // Program-side update: only the calling CPU's slot takes the value.
  const std::uint32_t key = 0;
  const std::uint64_t five = 5;
  ASSERT_TRUE(map.UpdateThisCpu(&key, &five).ok());
  std::uint64_t value = 0;
  ASSERT_TRUE(map.LookupTyped(std::uint32_t{0}, &value));
  EXPECT_EQ(value, 5u);
  EXPECT_EQ(map.AggregateU64(0), 5u);  // exactly one CPU slot written
}

TEST(PerCpuArrayMapTest, ControlPlaneUpdateWritesAllCpus) {
  // Userspace Update follows the kernel contract: the value lands in every
  // CPU's slot, not just the calling thread's.
  PerCpuArrayMap map("p", sizeof(std::uint64_t), 2, /*num_cpus=*/4);
  ASSERT_TRUE(map.UpdateTyped(std::uint32_t{1}, std::uint64_t{7}).ok());
  for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
    std::uint64_t v = 0;
    std::memcpy(&v, map.SlotAt(cpu, 1), sizeof(v));
    EXPECT_EQ(v, 7u) << "cpu " << cpu;
  }
  EXPECT_EQ(map.AggregateU64(1), 28u);
  // Delete likewise clears every CPU's slot.
  std::uint32_t key = 1;
  ASSERT_TRUE(map.Delete(&key).ok());
  EXPECT_EQ(map.AggregateU64(1), 0u);
}

TEST(PerCpuArrayMapTest, ForEachVisitsEveryCpuSlot) {
  PerCpuArrayMap map("p", sizeof(std::uint64_t), 2, /*num_cpus=*/3);
  for (std::uint32_t cpu = 0; cpu < 3; ++cpu) {
    for (std::uint32_t index = 0; index < 2; ++index) {
      const std::uint64_t v = 100 * cpu + index;
      std::memcpy(map.SlotAt(cpu, index), &v, sizeof(v));
    }
  }
  // Contract: every (key, cpu) pair, same key num_cpus() consecutive times
  // in CPU order. AppendMapDumpJson's key grouping depends on this.
  std::vector<std::uint32_t> keys;
  std::vector<std::uint64_t> values;
  map.ForEach([&](const void* key, const void* value) {
    std::uint32_t k;
    std::uint64_t v;
    std::memcpy(&k, key, sizeof(k));
    std::memcpy(&v, value, sizeof(v));
    keys.push_back(k);
    values.push_back(v);
  });
  EXPECT_EQ(keys, (std::vector<std::uint32_t>{0, 0, 0, 1, 1, 1}));
  EXPECT_EQ(values, (std::vector<std::uint64_t>{0, 100, 200, 1, 101, 201}));
}

TEST(PerCpuArrayMapTest, AggregateAndDumpAllCpus) {
  PerCpuArrayMap map("p", sizeof(std::uint64_t), 1, /*num_cpus=*/4);
  for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
    const std::uint64_t v = cpu + 1;
    std::memcpy(map.SlotAt(cpu, 0), &v, sizeof(v));
  }
  EXPECT_EQ(map.AggregateU64(0), 1u + 2 + 3 + 4);
  std::vector<std::uint64_t> lanes;
  map.DumpAllCpus(0, [&](std::uint32_t cpu, const void* value) {
    std::uint64_t v;
    std::memcpy(&v, value, sizeof(v));
    EXPECT_EQ(cpu, lanes.size());
    lanes.push_back(v);
  });
  EXPECT_EQ(lanes, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

// TSan regression for the torn-read fix: per-CPU counter lanes are written
// with atomic adds (the xadd the census policy uses) and stores while a
// reader loops cross-CPU aggregation. Pre-fix, the sum did plain 64-bit loads
// racing the writers — a data race under TSan and a torn read on paper.
TEST(PerCpuArrayMapTest, ConcurrentAggregationIsRaceFree) {
  PerCpuArrayMap map("p", sizeof(std::uint64_t), 1, /*num_cpus=*/4);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kIncrements = 20'000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&map, w] {
      auto* lane = reinterpret_cast<std::uint64_t*>(
          map.SlotAt(static_cast<std::uint32_t>(w), 0));
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        __atomic_fetch_add(lane, 1, __ATOMIC_RELAXED);
      }
    });
  }
  std::thread reader([&map] {
    std::uint64_t last = 0;
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t sum = map.AggregateU64(0);
      EXPECT_GE(sum, last);  // counters only grow
      last = sum;
    }
  });
  for (auto& writer : writers) {
    writer.join();
  }
  reader.join();
  EXPECT_EQ(map.AggregateU64(0), kWriters * kIncrements);
}

TEST(PerCpuHashMapTest, ControlPlaneUpdateWritesAllCpus) {
  PerCpuHashMap map("ph", sizeof(std::uint64_t), sizeof(std::uint64_t), 16,
                    /*num_cpus=*/4);
  ASSERT_TRUE(map.UpdateTyped(std::uint64_t{42}, std::uint64_t{3}).ok());
  EXPECT_EQ(map.Size(), 1u);
  std::uint64_t key = 42;
  EXPECT_EQ(map.AggregateU64(&key), 12u);  // 3 in each of 4 CPU slots
}

TEST(PerCpuHashMapTest, UpdateThisCpuWritesOneSlot) {
  PerCpuHashMap map("ph", sizeof(std::uint64_t), sizeof(std::uint64_t), 16,
                    /*num_cpus=*/4);
  const std::uint64_t key = 7;
  const std::uint64_t value = 5;
  ASSERT_TRUE(map.UpdateThisCpu(&key, &value).ok());
  EXPECT_EQ(map.AggregateU64(&key), 5u);  // other CPU slots stayed zero
  EXPECT_NE(map.Lookup(&key), nullptr);   // this thread sees its own slot
}

TEST(PerCpuHashMapTest, DumpAllCpusAndDelete) {
  PerCpuHashMap map("ph", sizeof(std::uint64_t), sizeof(std::uint64_t), 16,
                    /*num_cpus=*/3);
  ASSERT_TRUE(map.UpdateTyped(std::uint64_t{1}, std::uint64_t{9}).ok());
  std::uint64_t key = 1;
  std::vector<std::uint64_t> lanes;
  EXPECT_TRUE(map.DumpAllCpus(&key, [&](std::uint32_t cpu, const void* value) {
    std::uint64_t v;
    std::memcpy(&v, value, sizeof(v));
    EXPECT_EQ(cpu, lanes.size());
    lanes.push_back(v);
  }));
  EXPECT_EQ(lanes, (std::vector<std::uint64_t>{9, 9, 9}));
  std::uint64_t missing = 2;
  EXPECT_FALSE(map.DumpAllCpus(&missing, [](std::uint32_t, const void*) {}));
  ASSERT_TRUE(map.Delete(&key).ok());
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_EQ(map.AggregateU64(&key), 0u);
}

TEST(PerCpuHashMapTest, ForEachVisitsEveryKeyCpuPair) {
  PerCpuHashMap map("ph", sizeof(std::uint64_t), sizeof(std::uint64_t), 16,
                    /*num_cpus=*/2);
  ASSERT_TRUE(map.UpdateTyped(std::uint64_t{10}, std::uint64_t{1}).ok());
  ASSERT_TRUE(map.UpdateTyped(std::uint64_t{20}, std::uint64_t{2}).ok());
  std::vector<std::uint64_t> keys;
  map.ForEach([&](const void* key, const void*) {
    std::uint64_t k;
    std::memcpy(&k, key, sizeof(k));
    keys.push_back(k);
  });
  ASSERT_EQ(keys.size(), 4u);  // 2 keys x 2 cpus
  // Same key appears num_cpus() times consecutively (order of keys is
  // bucket order, unspecified — only the grouping is contractual).
  EXPECT_EQ(keys[0], keys[1]);
  EXPECT_EQ(keys[2], keys[3]);
  EXPECT_NE(keys[0], keys[2]);
}

TEST(PerCpuHashMapTest, RecycledEntriesStartZeroed) {
  PerCpuHashMap map("ph", sizeof(std::uint64_t), sizeof(std::uint64_t), 2,
                    /*num_cpus=*/4);
  const std::uint64_t key = 5;
  const std::uint64_t one = 1;
  ASSERT_TRUE(map.UpdateThisCpu(&key, &one).ok());
  ASSERT_TRUE(map.Delete(&key).ok());
  // Re-inserting through the program path must not resurrect the old
  // counts in *other* CPUs' slots from the recycled pooled entry.
  ASSERT_TRUE(map.UpdateThisCpu(&key, &one).ok());
  EXPECT_EQ(map.AggregateU64(&key), 1u);
}

// The alignment fix: with key_size % 8 != 0 the value region must still be
// 8-byte aligned, otherwise per-CPU u64 lanes fault on strict-alignment
// targets and tear under atomics. Pre-fix the value sat at data+key_size.
TEST(HashMapTest, OddKeySizeKeepsValuesAligned) {
  struct Key {
    std::uint32_t a;
    std::uint32_t b;
    std::uint32_t c;
  };
  static_assert(sizeof(Key) == 12, "key chosen to break 8-byte alignment");
  HashMap map("h", sizeof(Key), sizeof(std::uint64_t), 16);
  ASSERT_TRUE(map.UpdateTyped(Key{1, 2, 3}, std::uint64_t{42}).ok());
  const Key key{1, 2, 3};
  void* value = map.Lookup(&key);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(value) % 8, 0u);
  std::uint64_t v = 0;
  ASSERT_TRUE(map.LookupTyped(key, &v));
  EXPECT_EQ(v, 42u);

  PerCpuHashMap percpu("ph", sizeof(Key), sizeof(std::uint64_t), 16,
                       /*num_cpus=*/3);
  ASSERT_TRUE(percpu.UpdateTyped(Key{4, 5, 6}, std::uint64_t{1}).ok());
  const Key key2{4, 5, 6};
  percpu.DumpAllCpus(&key2, [](std::uint32_t, const void* lane) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lane) % 8, 0u);
  });
  EXPECT_EQ(percpu.AggregateU64(&key2), 3u);
}

TEST(ArrayMapTest, ForEachVisitsAllSlots) {
  ArrayMap map("m", sizeof(std::uint64_t), 4);
  ASSERT_TRUE(map.UpdateTyped(std::uint32_t{1}, std::uint64_t{10}).ok());
  ASSERT_TRUE(map.UpdateTyped(std::uint32_t{3}, std::uint64_t{30}).ok());
  std::uint64_t sum = 0;
  int visits = 0;
  map.ForEach([&](const void*, const void* value) {
    std::uint64_t v;
    std::memcpy(&v, value, sizeof(v));
    sum += v;
    ++visits;
  });
  EXPECT_EQ(visits, 4);
  EXPECT_EQ(sum, 40u);
}

TEST(HashMapTest, ForEachVisitsLiveEntriesOnly) {
  HashMap map("h", 8, 8, 16);
  for (std::uint64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(map.UpdateTyped(k, k * 10).ok());
  }
  std::uint64_t key3 = 3;
  ASSERT_TRUE(map.Delete(&key3).ok());
  std::uint64_t key_sum = 0;
  int visits = 0;
  map.ForEach([&](const void* key, const void*) {
    std::uint64_t k;
    std::memcpy(&k, key, sizeof(k));
    key_sum += k;
    ++visits;
  });
  EXPECT_EQ(visits, 5);
  EXPECT_EQ(key_sum, 0u + 1 + 2 + 4 + 5);
}

TEST(CreateMapTest, ValidatesParameters) {
  EXPECT_FALSE(CreateMap(MapType::kArray, "m", 8, 8, 4, 1).ok());   // bad key size
  EXPECT_FALSE(CreateMap(MapType::kArray, "m", 4, 0, 4, 1).ok());   // zero value
  EXPECT_FALSE(CreateMap(MapType::kHash, "m", 0, 8, 4, 1).ok());    // zero key
  EXPECT_FALSE(CreateMap(MapType::kPerCpuArray, "m", 4, 8, 4, 0).ok());  // no cpus
  EXPECT_FALSE(CreateMap(MapType::kPerCpuHash, "m", 8, 8, 4, 0).ok());   // no cpus
  auto ok = CreateMap(MapType::kHash, "m", 8, 8, 4, 1);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)->type(), MapType::kHash);
}

TEST(CreateMapTest, PerCpuHashRoundTrip) {
  auto map = CreateMap(MapType::kPerCpuHash, "m", 8, 8, 4, 2);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ((*map)->type(), MapType::kPerCpuHash);
  EXPECT_TRUE((*map)->is_per_cpu());
  EXPECT_EQ((*map)->num_cpus(), 2u);
}

TEST(MapTypeTest, NamesRoundTrip) {
  for (MapType type : {MapType::kArray, MapType::kPerCpuArray, MapType::kHash,
                       MapType::kPerCpuHash}) {
    MapType parsed;
    ASSERT_TRUE(MapTypeFromName(MapTypeName(type), &parsed))
        << MapTypeName(type);
    EXPECT_EQ(parsed, type);
  }
  MapType parsed;
  EXPECT_FALSE(MapTypeFromName("bogus", &parsed));
}

}  // namespace
}  // namespace concord
