#include "src/bpf/maps.h"

#include <cstdlib>
#include <cstring>

#include "src/base/cacheline.h"
#include "src/base/spinwait.h"
#include "src/topology/thread_context.h"

namespace concord {

const char* MapTypeName(MapType type) {
  switch (type) {
    case MapType::kArray:
      return "array";
    case MapType::kHash:
      return "hash";
    case MapType::kPerCpuArray:
      return "percpu_array";
    case MapType::kPerCpuHash:
      return "percpu_hash";
  }
  return "unknown";
}

bool MapTypeFromName(const std::string& name, MapType* out) {
  if (name == "array") {
    *out = MapType::kArray;
  } else if (name == "hash") {
    *out = MapType::kHash;
  } else if (name == "percpu_array") {
    *out = MapType::kPerCpuArray;
  } else if (name == "percpu_hash") {
    *out = MapType::kPerCpuHash;
  } else {
    return false;
  }
  return true;
}

namespace {

std::uint32_t RoundUpToCacheLine(std::uint32_t n) {
  return static_cast<std::uint32_t>((n + kCacheLineSize - 1) / kCacheLineSize *
                                    kCacheLineSize);
}

std::uint32_t RoundUpTo8(std::uint32_t n) { return (n + 7u) & ~7u; }

// Copies `size` bytes into an 8-aligned map value slot. Whole u64 lanes go
// through relaxed atomic stores so concurrent aggregating readers (and TSan)
// never see a torn lane; a non-multiple-of-8 tail is plain bytes — such
// values are not u64 counters and are never aggregated.
void AtomicSlotStore(void* dst, const void* src, std::uint32_t size) {
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* s = static_cast<const std::uint8_t*>(src);
  std::uint32_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t lane;
    std::memcpy(&lane, s + i, sizeof(lane));
    __atomic_store_n(reinterpret_cast<std::uint64_t*>(d + i), lane,
                     __ATOMIC_RELAXED);
  }
  if (i < size) {
    std::memcpy(d + i, s + i, size - i);
  }
}

void AtomicSlotZero(void* dst, std::uint32_t size) {
  auto* d = static_cast<std::uint8_t*>(dst);
  std::uint32_t i = 0;
  for (; i + 8 <= size; i += 8) {
    __atomic_store_n(reinterpret_cast<std::uint64_t*>(d + i), std::uint64_t{0},
                     __ATOMIC_RELAXED);
  }
  if (i < size) {
    std::memset(d + i, 0, size - i);
  }
}

std::uint64_t AtomicLoadU64(const void* p) {
  return __atomic_load_n(reinterpret_cast<const std::uint64_t*>(p),
                         __ATOMIC_RELAXED);
}

}  // namespace

// --- ArrayMap ----------------------------------------------------------------

ArrayMap::ArrayMap(std::string name, std::uint32_t value_size,
                   std::uint32_t max_entries)
    : BpfMap(MapType::kArray, std::move(name), sizeof(std::uint32_t), value_size,
             max_entries),
      storage_(static_cast<std::size_t>(value_size) * max_entries, 0) {}

void* ArrayMap::Lookup(const void* key) {
  std::uint32_t index;
  std::memcpy(&index, key, sizeof(index));
  if (index >= max_entries_) {
    return nullptr;
  }
  return storage_.data() + static_cast<std::size_t>(index) * value_size_;
}

Status ArrayMap::DoUpdate(const void* key, const void* value) {
  void* slot = Lookup(key);
  if (slot == nullptr) {
    return InvalidArgumentError("array map index out of range");
  }
  std::memcpy(slot, value, value_size_);
  return Status::Ok();
}

Status ArrayMap::DoDelete(const void* key) {
  void* slot = Lookup(key);
  if (slot == nullptr) {
    return InvalidArgumentError("array map index out of range");
  }
  std::memset(slot, 0, value_size_);
  return Status::Ok();
}

void ArrayMap::ForEach(const EntryVisitor& visit) {
  for (std::uint32_t i = 0; i < max_entries_; ++i) {
    visit(&i, storage_.data() + static_cast<std::size_t>(i) * value_size_);
  }
}

void* ArrayMap::SlotAt(std::uint32_t index) {
  CONCORD_CHECK(index < max_entries_);
  return storage_.data() + static_cast<std::size_t>(index) * value_size_;
}

// --- PerCpuArrayMap ------------------------------------------------------------

PerCpuArrayMap::PerCpuArrayMap(std::string name, std::uint32_t value_size,
                               std::uint32_t max_entries, std::uint32_t num_cpus)
    : BpfMap(MapType::kPerCpuArray, std::move(name), sizeof(std::uint32_t),
             value_size, max_entries),
      num_cpus_(num_cpus),
      stride_(RoundUpToCacheLine(value_size)),
      storage_(static_cast<std::size_t>(stride_) * max_entries * num_cpus, 0) {}

void* PerCpuArrayMap::Lookup(const void* key) {
  std::uint32_t index;
  std::memcpy(&index, key, sizeof(index));
  if (index >= max_entries_) {
    return nullptr;
  }
  const std::uint32_t cpu = Self().vcpu % num_cpus_;
  return SlotAt(cpu, index);
}

Status PerCpuArrayMap::DoUpdate(const void* key, const void* value) {
  std::uint32_t index;
  std::memcpy(&index, key, sizeof(index));
  if (index >= max_entries_) {
    return InvalidArgumentError("percpu array map index out of range");
  }
  // Control-plane semantics: the value reaches every CPU's slot.
  for (std::uint32_t cpu = 0; cpu < num_cpus_; ++cpu) {
    AtomicSlotStore(SlotAt(cpu, index), value, value_size_);
  }
  return Status::Ok();
}

Status PerCpuArrayMap::UpdateThisCpu(const void* key, const void* value) {
  void* slot = Lookup(key);
  if (slot == nullptr) {
    return InvalidArgumentError("percpu array map index out of range");
  }
  AtomicSlotStore(slot, value, value_size_);
  return Status::Ok();
}

Status PerCpuArrayMap::DoDelete(const void* key) {
  std::uint32_t index;
  std::memcpy(&index, key, sizeof(index));
  if (index >= max_entries_) {
    return InvalidArgumentError("percpu array map index out of range");
  }
  for (std::uint32_t cpu = 0; cpu < num_cpus_; ++cpu) {
    AtomicSlotZero(SlotAt(cpu, index), value_size_);
  }
  return Status::Ok();
}

void PerCpuArrayMap::ForEach(const EntryVisitor& visit) {
  for (std::uint32_t i = 0; i < max_entries_; ++i) {
    for (std::uint32_t cpu = 0; cpu < num_cpus_; ++cpu) {
      visit(&i, SlotAt(cpu, i));
    }
  }
}

void* PerCpuArrayMap::SlotAt(std::uint32_t cpu, std::uint32_t index) {
  CONCORD_CHECK(cpu < num_cpus_);
  CONCORD_CHECK(index < max_entries_);
  const std::size_t offset =
      (static_cast<std::size_t>(cpu) * max_entries_ + index) * stride_;
  return storage_.data() + offset;
}

std::uint64_t PerCpuArrayMap::AggregateU64(std::uint32_t index) {
  CONCORD_CHECK(value_size_ >= sizeof(std::uint64_t));
  std::uint64_t total = 0;
  for (std::uint32_t cpu = 0; cpu < num_cpus_; ++cpu) {
    total += AtomicLoadU64(SlotAt(cpu, index));
  }
  return total;
}

void PerCpuArrayMap::DumpAllCpus(std::uint32_t index, const CpuVisitor& visit) {
  for (std::uint32_t cpu = 0; cpu < num_cpus_; ++cpu) {
    visit(cpu, SlotAt(cpu, index));
  }
}

// --- HashMapBase -------------------------------------------------------------

namespace {

std::uint32_t NextPowerOfTwo(std::uint32_t n) {
  std::uint32_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

HashMapBase::HashMapBase(MapType type, std::string name, std::uint32_t key_size,
                         std::uint32_t value_size, std::uint32_t max_entries,
                         std::uint32_t value_slots, std::uint32_t value_stride)
    : BpfMap(type, std::move(name), key_size, value_size, max_entries),
      value_offset_(RoundUpTo8(key_size)),
      value_stride_(value_stride),
      value_slots_(value_slots),
      num_buckets_(NextPowerOfTwo(max_entries < 8 ? 8 : max_entries)),
      buckets_(num_buckets_, nullptr) {
  // Preallocate the whole entry pool: pointer stability requirement. The
  // key region is rounded up to 8 bytes (value_offset_) so every value slot
  // stays u64-aligned no matter the key size.
  const std::size_t entry_bytes =
      sizeof(Entry) + value_offset_ +
      static_cast<std::size_t>(value_slots_) * value_stride_;
  for (std::uint32_t i = 0; i < max_entries_; ++i) {
    void* raw = std::calloc(1, entry_bytes);
    CONCORD_CHECK(raw != nullptr);
    pool_allocations_.push_back(raw);
    auto* entry = static_cast<Entry*>(raw);
    entry->next = free_list_;
    free_list_ = entry;
  }
}

HashMapBase::~HashMapBase() {
  for (void* raw : pool_allocations_) {
    std::free(raw);
  }
}

HashMapBase::Entry* HashMapBase::AllocEntry() {
  Entry* entry = free_list_;
  if (entry != nullptr) {
    free_list_ = entry->next;
    entry->next = nullptr;
  }
  return entry;
}

void HashMapBase::FreeEntry(Entry* entry) {
  entry->next = free_list_;
  free_list_ = entry;
}

std::uint64_t HashMapBase::HashKey(const void* key) const {
  // FNV-1a over the key bytes; adequate distribution for policy-sized maps.
  const auto* bytes = static_cast<const std::uint8_t*>(key);
  std::uint64_t hash = 14695981039346656037ull;
  for (std::uint32_t i = 0; i < key_size_; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

void HashMapBase::Lock() {
  SpinWait spin;
  while (lock_.test_and_set(std::memory_order_acquire)) {
    spin.Once();
  }
}

void HashMapBase::Unlock() { lock_.clear(std::memory_order_release); }

HashMapBase::Entry* HashMapBase::FindLocked(const void* key,
                                            std::uint64_t hash) {
  Entry* entry = buckets_[hash & (num_buckets_ - 1)];
  while (entry != nullptr) {
    if (entry->hash == hash && std::memcmp(KeyOf(entry), key, key_size_) == 0) {
      return entry;
    }
    entry = entry->next;
  }
  return nullptr;
}

HashMapBase::Entry* HashMapBase::InsertLocked(const void* key,
                                              std::uint64_t hash) {
  Entry* entry = AllocEntry();
  if (entry == nullptr) {
    return nullptr;
  }
  entry->hash = hash;
  std::memcpy(KeyOf(entry), key, key_size_);
  // Pooled entries are recycled: zero every value slot so a reused entry
  // does not resurrect a prior key's per-CPU counts.
  for (std::uint32_t slot = 0; slot < value_slots_; ++slot) {
    AtomicSlotZero(ValueOf(entry, slot), value_size_);
  }
  Entry** bucket = &buckets_[hash & (num_buckets_ - 1)];
  entry->next = *bucket;
  *bucket = entry;
  live_.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

// --- HashMap -------------------------------------------------------------------

HashMap::HashMap(std::string name, std::uint32_t key_size,
                 std::uint32_t value_size, std::uint32_t max_entries)
    : HashMapBase(MapType::kHash, std::move(name), key_size, value_size,
                  max_entries, /*value_slots=*/1, /*value_stride=*/value_size) {}

void* HashMap::Lookup(const void* key) {
  const std::uint64_t hash = HashKey(key);
  Lock();
  Entry* entry = FindLocked(key, hash);
  Unlock();
  return entry == nullptr ? nullptr : ValueOf(entry);
}

Status HashMap::DoUpdate(const void* key, const void* value) {
  const std::uint64_t hash = HashKey(key);
  Lock();
  Entry* entry = FindLocked(key, hash);
  if (entry == nullptr) {
    entry = InsertLocked(key, hash);
  }
  if (entry == nullptr) {
    Unlock();
    return ResourceExhaustedError("hash map '" + name_ + "' is full");
  }
  AtomicSlotStore(ValueOf(entry), value, value_size_);
  Unlock();
  return Status::Ok();
}

Status HashMap::DoDelete(const void* key) {
  const std::uint64_t hash = HashKey(key);
  Lock();
  Entry** link = &buckets_[hash & (num_buckets_ - 1)];
  while (*link != nullptr) {
    Entry* entry = *link;
    if (entry->hash == hash && std::memcmp(KeyOf(entry), key, key_size_) == 0) {
      *link = entry->next;
      FreeEntry(entry);
      live_.fetch_sub(1, std::memory_order_relaxed);
      Unlock();
      return Status::Ok();
    }
    link = &entry->next;
  }
  Unlock();
  return NotFoundError("key not present in hash map '" + name_ + "'");
}

void HashMap::ForEach(const EntryVisitor& visit) {
  Lock();
  for (Entry* bucket : buckets_) {
    for (Entry* entry = bucket; entry != nullptr; entry = entry->next) {
      visit(KeyOf(entry), ValueOf(entry));
    }
  }
  Unlock();
}

// --- PerCpuHashMap -----------------------------------------------------------

PerCpuHashMap::PerCpuHashMap(std::string name, std::uint32_t key_size,
                             std::uint32_t value_size, std::uint32_t max_entries,
                             std::uint32_t num_cpus)
    : HashMapBase(MapType::kPerCpuHash, std::move(name), key_size, value_size,
                  max_entries, /*value_slots=*/num_cpus,
                  // Cache-line stride keeps CPUs off each other's lines when
                  // they count into the same key.
                  /*value_stride=*/RoundUpToCacheLine(value_size)),
      num_cpus_(num_cpus) {}

std::uint32_t PerCpuHashMap::ThisCpu() const {
  return Self().vcpu % num_cpus_;
}

void* PerCpuHashMap::Lookup(const void* key) {
  const std::uint64_t hash = HashKey(key);
  Lock();
  Entry* entry = FindLocked(key, hash);
  Unlock();
  return entry == nullptr ? nullptr : ValueOf(entry, ThisCpu());
}

Status PerCpuHashMap::DoUpdate(const void* key, const void* value) {
  const std::uint64_t hash = HashKey(key);
  Lock();
  Entry* entry = FindLocked(key, hash);
  if (entry == nullptr) {
    entry = InsertLocked(key, hash);
  }
  if (entry == nullptr) {
    Unlock();
    return ResourceExhaustedError("percpu hash map '" + name_ + "' is full");
  }
  // Control-plane semantics: the value reaches every CPU's slot.
  for (std::uint32_t cpu = 0; cpu < num_cpus_; ++cpu) {
    AtomicSlotStore(ValueOf(entry, cpu), value, value_size_);
  }
  Unlock();
  return Status::Ok();
}

Status PerCpuHashMap::UpdateThisCpu(const void* key, const void* value) {
  const std::uint64_t hash = HashKey(key);
  Lock();
  Entry* entry = FindLocked(key, hash);
  if (entry == nullptr) {
    entry = InsertLocked(key, hash);
  }
  if (entry == nullptr) {
    Unlock();
    return ResourceExhaustedError("percpu hash map '" + name_ + "' is full");
  }
  AtomicSlotStore(ValueOf(entry, ThisCpu()), value, value_size_);
  Unlock();
  return Status::Ok();
}

Status PerCpuHashMap::DoDelete(const void* key) {
  const std::uint64_t hash = HashKey(key);
  Lock();
  Entry** link = &buckets_[hash & (num_buckets_ - 1)];
  while (*link != nullptr) {
    Entry* entry = *link;
    if (entry->hash == hash && std::memcmp(KeyOf(entry), key, key_size_) == 0) {
      *link = entry->next;
      FreeEntry(entry);
      live_.fetch_sub(1, std::memory_order_relaxed);
      Unlock();
      return Status::Ok();
    }
    link = &entry->next;
  }
  Unlock();
  return NotFoundError("key not present in percpu hash map '" + name_ + "'");
}

void PerCpuHashMap::ForEach(const EntryVisitor& visit) {
  Lock();
  for (Entry* bucket : buckets_) {
    for (Entry* entry = bucket; entry != nullptr; entry = entry->next) {
      for (std::uint32_t cpu = 0; cpu < num_cpus_; ++cpu) {
        visit(KeyOf(entry), ValueOf(entry, cpu));
      }
    }
  }
  Unlock();
}

std::uint64_t PerCpuHashMap::AggregateU64(const void* key) {
  CONCORD_CHECK(value_size_ >= sizeof(std::uint64_t));
  const std::uint64_t hash = HashKey(key);
  Lock();
  Entry* entry = FindLocked(key, hash);
  std::uint64_t total = 0;
  if (entry != nullptr) {
    for (std::uint32_t cpu = 0; cpu < num_cpus_; ++cpu) {
      total += AtomicLoadU64(ValueOf(entry, cpu));
    }
  }
  Unlock();
  return total;
}

bool PerCpuHashMap::DumpAllCpus(const void* key, const CpuVisitor& visit) {
  const std::uint64_t hash = HashKey(key);
  Lock();
  Entry* entry = FindLocked(key, hash);
  if (entry != nullptr) {
    for (std::uint32_t cpu = 0; cpu < num_cpus_; ++cpu) {
      visit(cpu, ValueOf(entry, cpu));
    }
  }
  Unlock();
  return entry != nullptr;
}

// --- factory ---------------------------------------------------------------------

StatusOr<std::unique_ptr<BpfMap>> CreateMap(MapType type, std::string name,
                                            std::uint32_t key_size,
                                            std::uint32_t value_size,
                                            std::uint32_t max_entries,
                                            std::uint32_t num_cpus) {
  if (value_size == 0 || max_entries == 0) {
    return InvalidArgumentError("map value_size and max_entries must be non-zero");
  }
  if (value_size > 64 * 1024 || max_entries > 1 << 20) {
    return ResourceExhaustedError("map dimensions exceed limits");
  }
  switch (type) {
    case MapType::kArray:
      if (key_size != sizeof(std::uint32_t)) {
        return InvalidArgumentError("array map key must be 4 bytes");
      }
      return std::unique_ptr<BpfMap>(
          new ArrayMap(std::move(name), value_size, max_entries));
    case MapType::kPerCpuArray:
      if (key_size != sizeof(std::uint32_t)) {
        return InvalidArgumentError("percpu array map key must be 4 bytes");
      }
      if (num_cpus == 0) {
        return InvalidArgumentError("percpu map needs num_cpus > 0");
      }
      return std::unique_ptr<BpfMap>(
          new PerCpuArrayMap(std::move(name), value_size, max_entries, num_cpus));
    case MapType::kHash:
      if (key_size == 0 || key_size > 512) {
        return InvalidArgumentError("hash map key size out of range");
      }
      return std::unique_ptr<BpfMap>(
          new HashMap(std::move(name), key_size, value_size, max_entries));
    case MapType::kPerCpuHash:
      if (key_size == 0 || key_size > 512) {
        return InvalidArgumentError("percpu hash map key size out of range");
      }
      if (num_cpus == 0) {
        return InvalidArgumentError("percpu map needs num_cpus > 0");
      }
      return std::unique_ptr<BpfMap>(new PerCpuHashMap(
          std::move(name), key_size, value_size, max_entries, num_cpus));
  }
  return InvalidArgumentError("unknown map type");
}

}  // namespace concord
