// Helper function registry.
//
// Helpers are the only way a policy program touches the world beyond its
// context struct and stack, so this registry is the security boundary the
// verifier enforces: each helper declares an argument signature (checked
// statically) and a capability mask (matched against what the attach point
// allows — e.g. a `cmp_node` hook refuses helpers that mutate lock state,
// mirroring Table 1's "cmp_node only returns the decision").

#ifndef SRC_BPF_HELPERS_H_
#define SRC_BPF_HELPERS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace concord {

struct Program;  // forward (program.h includes this header)

// Capabilities a helper requires / an attach point grants.
enum HelperCapability : std::uint32_t {
  kCapRead = 1u << 0,        // read-only observation (time, ids, context)
  kCapMapRead = 1u << 1,     // map lookups
  kCapMapWrite = 1u << 2,    // map updates/deletes
  kCapTrace = 1u << 3,       // emit trace records
  kCapLockMutate = 1u << 4,  // mutate waiter state (park/boost decisions)
};

enum class HelperArgKind : std::uint8_t {
  kNone,          // argument unused
  kScalar,        // any scalar value
  kConstMapIndex, // compile-time-constant index into the program's map table
  kStackKeyPtr,   // pointer to initialized stack bytes of the map's key size;
                  // must follow a kConstMapIndex argument
  kStackValuePtr, // same, but the map's value size
};

enum class HelperRetKind : std::uint8_t {
  kScalar,
  kMapValueOrNull,  // pointer into the map named by the kConstMapIndex arg
};

// Runtime environment handed to helper implementations.
struct VmEnv {
  const Program* program = nullptr;  // for map table access
  void* hook_data = nullptr;         // attach-point-specific side channel
  std::uint32_t cpu = 0;             // calling vCPU, set once per invocation;
                                     // read by the JIT's inline per-CPU
                                     // map-lookup fast path
};

using HelperFn = std::uint64_t (*)(std::uint64_t a1, std::uint64_t a2,
                                   std::uint64_t a3, std::uint64_t a4,
                                   std::uint64_t a5, VmEnv& env);

struct HelperDef {
  std::uint32_t id = 0;
  std::string name;
  HelperFn fn = nullptr;
  HelperArgKind args[5] = {HelperArgKind::kNone, HelperArgKind::kNone,
                           HelperArgKind::kNone, HelperArgKind::kNone,
                           HelperArgKind::kNone};
  HelperRetKind ret = HelperRetKind::kScalar;
  std::uint32_t capabilities = kCapRead;
};

// Well-known helper ids.
enum WellKnownHelper : std::uint32_t {
  kHelperKtimeGetNs = 1,
  kHelperGetSmpProcessorId = 2,
  kHelperGetNumaNodeId = 3,
  kHelperGetCurrentTaskId = 4,
  kHelperGetTaskPriority = 5,
  kHelperGetTaskClass = 6,
  kHelperGetLocksHeld = 7,
  kHelperGetCsEwmaNs = 8,
  kHelperGetTaskQuotaNs = 9,       // (task_id) -> remaining vCPU quota
  kHelperGetTaskPreemptible = 10,  // (task_id) -> 1 if the vCPU may be scheduled out
  kHelperMapLookupElem = 16,
  kHelperMapUpdateElem = 17,
  kHelperMapDeleteElem = 18,
  kHelperTracePrintk = 24,
};

class HelperRegistry {
 public:
  // The global registry, pre-populated with the core helpers above.
  static HelperRegistry& Global();

  const HelperDef* Find(std::uint32_t id) const;
  const HelperDef* FindByName(const std::string& name) const;

 private:
  HelperRegistry();

  void RegisterCoreHelpers();

  std::vector<HelperDef> helpers_;
};

}  // namespace concord

#endif  // SRC_BPF_HELPERS_H_
