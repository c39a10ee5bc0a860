// BPF map objects: the state store available to policies.
//
// Policies are stateless bytecode; anything they want to remember between
// hook invocations (per-thread statistics, reader/writer vote counts,
// configured thresholds pushed from userspace) lives in maps, exactly as with
// kernel eBPF. Four map types cover every use case in the paper:
//
//   kArray       fixed-size array indexed by u32 — config knobs, counters
//   kHash        fixed-capacity hash table with arbitrary fixed-size keys
//   kPerCpuArray array with one value slot per virtual CPU — contention-free
//                counters for profiling policies
//   kPerCpuHash  hash table whose values are per-CPU — contention-free
//                keyed counters (per-task-class, per-socket, ...)
//
// Lifetime/pointer model mirrors the kernel: Lookup returns a pointer into
// map-owned storage that remains valid memory for the map's lifetime (entry
// slots are pooled and never freed individually), so a program may read a
// value concurrently with a Delete without a use-after-free — it may simply
// observe stale data, as in RCU-managed kernel maps.
//
// Per-CPU update contract (mirrors kernel BPF): a *program-side* update
// (map_update_elem from bytecode, routed through UpdateThisCpu) writes only
// the calling CPU's slot; a *userspace/control-plane* Update() writes the
// value into every CPU's slot, so a config knob pushed over RPC is visible
// no matter which vCPU the policy later runs on. Read-side aggregation
// (AggregateU64 / DumpAllCpus) uses relaxed 64-bit atomic loads and the
// write side uses matching atomic stores, so cross-CPU sums are never torn
// even while policies are counting.
//
// Publish contract: a control-plane Update() or Delete() bumps the decision
// epoch (src/base/decision_epoch.h) once the map holds the new value, so a
// lock that reuses a map-pure decision sees the write on its next read. The
// program-side paths (UpdateThisCpu, DeleteFromProgram) do not bump; instead
// a map referenced by a verified map-writing program is marked
// program-writable for good, and no decision reading it is reused. A C++
// write through a pointer from Lookup() or SlotAt() is neither: it bumps
// nothing, so it is not a publish.

#ifndef SRC_BPF_MAPS_H_
#define SRC_BPF_MAPS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/base/decision_epoch.h"
#include "src/base/status.h"

namespace concord {

enum class MapType {
  kArray,
  kHash,
  kPerCpuArray,
  kPerCpuHash,
};

const char* MapTypeName(MapType type);

// Reverse of MapTypeName (for `.map` directives in policy sources); false
// when `name` matches no map type.
bool MapTypeFromName(const std::string& name, MapType* out);

class BpfMap {
 public:
  BpfMap(MapType type, std::string name, std::uint32_t key_size,
         std::uint32_t value_size, std::uint32_t max_entries)
      : type_(type),
        name_(std::move(name)),
        key_size_(key_size),
        value_size_(value_size),
        max_entries_(max_entries) {}
  virtual ~BpfMap() = default;

  BpfMap(const BpfMap&) = delete;
  BpfMap& operator=(const BpfMap&) = delete;

  MapType type() const { return type_; }
  const std::string& name() const { return name_; }
  std::uint32_t key_size() const { return key_size_; }
  std::uint32_t value_size() const { return value_size_; }
  std::uint32_t max_entries() const { return max_entries_; }

  // True for the per-CPU map kinds (one value slot per vCPU).
  bool is_per_cpu() const {
    return type_ == MapType::kPerCpuArray || type_ == MapType::kPerCpuHash;
  }
  // Number of per-value CPU slots; 1 for single-instance maps.
  virtual std::uint32_t num_cpus() const { return 1; }

  // Returns a pointer to the value for `key`, or nullptr if absent. For
  // per-CPU maps this is the calling thread's vCPU slot. The pointed-to
  // storage stays valid memory for the map's lifetime.
  virtual void* Lookup(const void* key) = 0;

  // Inserts or overwrites. Control-plane semantics: per-CPU maps write the
  // value into every CPU's slot (kernel BPF userspace-update contract). Then
  // bumps the decision epoch.
  Status Update(const void* key, const void* value) {
    const Status status = DoUpdate(key, value);
    BumpDecisionEpoch();
    return status;
  }

  // Program-side insert/overwrite: per-CPU maps write only the calling
  // CPU's slot. Single-instance maps write as Update does, but no path here
  // bumps the epoch. This is what the map_update_elem helper calls.
  virtual Status UpdateThisCpu(const void* key, const void* value) {
    return DoUpdate(key, value);
  }

  // Control-plane delete; bumps the decision epoch as Update does.
  Status Delete(const void* key) {
    const Status status = DoDelete(key);
    BumpDecisionEpoch();
    return status;
  }

  // Program-side delete, without the bump. This is what the map_delete_elem
  // helper calls.
  Status DeleteFromProgram(const void* key) { return DoDelete(key); }

  // Sticky: set, with an epoch bump, by the verifier before a program that
  // writes a map it references can run (Program::writes_map). A decision
  // that reads a program-writable map is never reused.
  void MarkProgramWritable() {
    program_writable_.store(true, std::memory_order_relaxed);
    BumpDecisionEpoch();
  }
  bool program_writable() const {
    return program_writable_.load(std::memory_order_relaxed);
  }

  // Approximate number of live entries (exact for array maps).
  virtual std::uint32_t Size() const = 0;

  // Visits every live entry (key bytes, value bytes). For per-CPU maps the
  // visitor runs once per (key, cpu) pair — the same key appears num_cpus()
  // times, in CPU order — so generic dump paths see every slot. Intended
  // for userspace controller code (dumping a policy's state); takes the
  // map's internal lock where one exists, so do not call from a policy hook.
  using EntryVisitor = std::function<void(const void* key, const void* value)>;
  virtual void ForEach(const EntryVisitor& visit) = 0;

  // --- typed conveniences for userspace control code ----------------------
  template <typename K, typename V>
  Status UpdateTyped(const K& key, const V& value) {
    static_assert(std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>);
    CONCORD_CHECK(sizeof(K) == key_size_ && sizeof(V) == value_size_);
    return Update(&key, &value);
  }

  template <typename K, typename V>
  bool LookupTyped(const K& key, V* out) {
    static_assert(std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>);
    CONCORD_CHECK(sizeof(K) == key_size_ && sizeof(V) == value_size_);
    void* value = Lookup(&key);
    if (value == nullptr) {
      return false;
    }
    std::memcpy(out, value, sizeof(V));
    return true;
  }

 protected:
  // The write itself, without the epoch bump: all CPUs' slots for per-CPU
  // maps.
  virtual Status DoUpdate(const void* key, const void* value) = 0;
  virtual Status DoDelete(const void* key) = 0;

  const MapType type_;
  const std::string name_;
  const std::uint32_t key_size_;
  const std::uint32_t value_size_;
  const std::uint32_t max_entries_;

 private:
  std::atomic<bool> program_writable_{false};
};

// Array map: key is u32 index; all slots always exist (zero-initialized).
class ArrayMap : public BpfMap {
 public:
  ArrayMap(std::string name, std::uint32_t value_size, std::uint32_t max_entries);

  void* Lookup(const void* key) override;
  std::uint32_t Size() const override { return max_entries_; }
  void ForEach(const EntryVisitor& visit) override;

  // Direct slot access for userspace control code; index < max_entries.
  void* SlotAt(std::uint32_t index);

 protected:
  Status DoUpdate(const void* key, const void* value) override;
  Status DoDelete(const void* key) override;  // zeroes the slot (kernel semantics)

 private:
  std::vector<std::uint8_t> storage_;
};

// Per-CPU array map: Lookup resolves to the calling thread's vCPU slot.
class PerCpuArrayMap : public BpfMap {
 public:
  PerCpuArrayMap(std::string name, std::uint32_t value_size,
                 std::uint32_t max_entries, std::uint32_t num_cpus);

  void* Lookup(const void* key) override;
  Status UpdateThisCpu(const void* key, const void* value) override;
  std::uint32_t Size() const override { return max_entries_; }
  // Visits every (key, cpu) pair: each index is visited num_cpus times.
  void ForEach(const EntryVisitor& visit) override;

  // Cross-CPU access for aggregation in userspace control code.
  void* SlotAt(std::uint32_t cpu, std::uint32_t index);
  std::uint32_t num_cpus() const override { return num_cpus_; }

  // Sums slot `index` across CPUs as u64 lanes (CHECKs value_size >= 8).
  // Values wider than 8 bytes aggregate their first u64 lane. Loads are
  // relaxed atomics, so the sum is never torn against policy writers.
  std::uint64_t AggregateU64(std::uint32_t index);

  // Visits (cpu, value bytes) for slot `index` on every CPU.
  using CpuVisitor = std::function<void(std::uint32_t cpu, const void* value)>;
  void DumpAllCpus(std::uint32_t index, const CpuVisitor& visit);

  // Layout accessors for the JIT's inline lookup fast path: the slot for
  // (cpu, index) lives at slot_base() + (cpu * max_entries + index) * stride.
  // The base pointer is stable for the map's lifetime.
  const std::uint8_t* slot_base() const { return storage_.data(); }
  std::uint32_t stride() const { return stride_; }

 protected:
  Status DoUpdate(const void* key, const void* value) override;  // all CPUs
  Status DoDelete(const void* key) override;  // zeroes the slot on every CPU

 private:
  const std::uint32_t num_cpus_;
  const std::uint32_t stride_;  // value_size rounded up to a cache line
  std::vector<std::uint8_t> storage_;
};

// Shared chained-bucket machinery for the two hash kinds: fixed capacity,
// pooled entries (pointer stability), one TTAS spinlock per map (policies
// execute on lock slow paths where a short map-internal spin is negligible;
// contention on a single-instance policy map is itself a policy bug the
// profiler would surface — which is exactly what kPerCpuHash is for).
class HashMapBase : public BpfMap {
 public:
  HashMapBase(MapType type, std::string name, std::uint32_t key_size,
              std::uint32_t value_size, std::uint32_t max_entries,
              std::uint32_t value_slots, std::uint32_t value_stride);
  ~HashMapBase() override;

  std::uint32_t Size() const override {
    return live_.load(std::memory_order_relaxed);
  }

 protected:
  struct Entry {
    Entry* next = nullptr;
    std::uint64_t hash = 0;
    // key bytes (rounded up to 8 so values stay u64-aligned), then
    // value_slots value regions of value_stride bytes each
    std::uint8_t data[];  // NOLINT: flexible array member idiom
  };

  Entry* AllocEntry();
  void FreeEntry(Entry* entry);
  std::uint64_t HashKey(const void* key) const;
  std::uint8_t* KeyOf(Entry* e) const { return e->data; }
  // Value region for slot `slot` (slot 0 for single-instance maps).
  std::uint8_t* ValueOf(Entry* e, std::uint32_t slot = 0) const {
    return e->data + value_offset_ +
           static_cast<std::size_t>(slot) * value_stride_;
  }

  // Finds the live entry for `key` under the lock; nullptr when absent.
  Entry* FindLocked(const void* key, std::uint64_t hash);
  // Inserts a zero-valued entry for `key`; nullptr when the pool is empty.
  Entry* InsertLocked(const void* key, std::uint64_t hash);

  void Lock();
  void Unlock();

  // Key region rounded up to 8 bytes so every value slot is u64-aligned
  // regardless of key_size (direct value loads from JIT'd programs are
  // UBSan-clean).
  const std::uint32_t value_offset_;
  const std::uint32_t value_stride_;
  const std::uint32_t value_slots_;
  const std::uint32_t num_buckets_;
  std::vector<Entry*> buckets_;
  std::vector<void*> pool_allocations_;
  Entry* free_list_ = nullptr;
  std::atomic<std::uint32_t> live_{0};
  std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
};

// Hash map: one value per key.
class HashMap : public HashMapBase {
 public:
  HashMap(std::string name, std::uint32_t key_size, std::uint32_t value_size,
          std::uint32_t max_entries);

  void* Lookup(const void* key) override;
  void ForEach(const EntryVisitor& visit) override;

 protected:
  Status DoUpdate(const void* key, const void* value) override;
  Status DoDelete(const void* key) override;
};

// Per-CPU hash map: one value slot per vCPU per key. Lookup resolves to the
// calling thread's vCPU slot; chain traversal still takes the map spinlock,
// but counter mutation through the returned pointer is contention-free —
// the hot-path pattern is lookup-once then xadd into the per-CPU slot.
class PerCpuHashMap : public HashMapBase {
 public:
  PerCpuHashMap(std::string name, std::uint32_t key_size,
                std::uint32_t value_size, std::uint32_t max_entries,
                std::uint32_t num_cpus);

  void* Lookup(const void* key) override;
  Status UpdateThisCpu(const void* key, const void* value) override;
  // Visits every (key, cpu) pair, like PerCpuArrayMap::ForEach.
  void ForEach(const EntryVisitor& visit) override;

  std::uint32_t num_cpus() const override { return num_cpus_; }

  // Sums `key`'s value across CPUs as u64 lanes (CHECKs value_size >= 8);
  // 0 when the key is absent. Relaxed atomic loads — never torn.
  std::uint64_t AggregateU64(const void* key);

  // Visits (cpu, value bytes) for `key` on every CPU; false when absent.
  using CpuVisitor = std::function<void(std::uint32_t cpu, const void* value)>;
  bool DumpAllCpus(const void* key, const CpuVisitor& visit);

 protected:
  Status DoUpdate(const void* key, const void* value) override;  // all CPUs
  Status DoDelete(const void* key) override;

 private:
  std::uint32_t ThisCpu() const;

  const std::uint32_t num_cpus_;
};

// Creates a map of the given type. `num_cpus` is only used by per-CPU maps.
StatusOr<std::unique_ptr<BpfMap>> CreateMap(MapType type, std::string name,
                                            std::uint32_t key_size,
                                            std::uint32_t value_size,
                                            std::uint32_t max_entries,
                                            std::uint32_t num_cpus);

}  // namespace concord

#endif  // SRC_BPF_MAPS_H_
