// Policy program container.

#ifndef SRC_BPF_PROGRAM_H_
#define SRC_BPF_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/bpf/context.h"
#include "src/bpf/insn.h"
#include "src/bpf/maps.h"

namespace concord {

class JitProgram;  // src/bpf/jit/jit.h

// Hard program-size cap, as in classic eBPF.
inline constexpr std::size_t kMaxProgramInsns = 4096;

struct Program {
  std::string name;
  std::vector<Insn> insns;

  // Maps the program may reference via kConstMapIndex helper arguments.
  // Non-owning: maps belong to the PolicyModule / userspace controller and
  // must outlive every attached copy of the program.
  std::vector<BpfMap*> maps;

  // The context layout this program was written against. Set before
  // verification; attach points check it matches the hook's descriptor.
  const ContextDescriptor* ctx_desc = nullptr;

  // Set by Verifier::Verify on success. The VM refuses unverified programs.
  bool verified = false;

  // Filled in by the verifier: capability union of all helpers called.
  std::uint32_t used_capabilities = 0;

  // Filled in by the verifier, and meaningful once `verified`: the context
  // fields the program loads, bit i for ctx_desc->fields()[i], and whether
  // it calls get_cs_ewma_ns. A precompiled program is opaque, so
  // PolicySpec::AddNative sets every bit.
  std::uint64_t ctx_fields_read = 0;
  bool calls_get_cs_ewma_ns = false;

  // Filled in by the verifier, and meaningful once `verified`. writes_map:
  // the program stores or atomically adds through a map-value pointer, or
  // calls a helper with kCapMapWrite. map_pure: it writes no map and its only
  // helper call is map_lookup_elem on single-instance maps (array or hash),
  // so what it computes depends only on its context and map contents. A
  // precompiled program is opaque and has neither fact.
  bool writes_map = false;
  bool map_pure = false;

  // Filled in by the verifier: for each pc holding a map_lookup_elem call,
  // the constant map index every verified path passes in R1, or
  // kPolymorphicMapSite when different paths disagree. kNoMapSite
  // everywhere else. The JIT uses this to inline per-CPU array lookups.
  static constexpr std::int32_t kNoMapSite = -1;
  static constexpr std::int32_t kPolymorphicMapSite = -2;
  std::vector<std::int32_t> map_lookup_sites;

  // Native code for this program, set by PolicySpec::JitCompileAll after
  // verification when the JIT is enabled. Shared between copies of the
  // program so the executable mapping lives exactly as long as some attached
  // or in-flight copy references it. Null means "interpret".
  std::shared_ptr<const JitProgram> jit;

  // A precompiled program: C++ linked into the process, run as
  // native(native_data, ctx) in place of `insns`, with the same context
  // struct the hook's BPF programs read. Trusted, so nothing verifies or
  // compiles it, and no text loader builds one. Null for a BPF program.
  using NativeFn = std::uint64_t (*)(void* data, void* ctx);
  NativeFn native = nullptr;
  void* native_data = nullptr;
};

}  // namespace concord

#endif  // SRC_BPF_PROGRAM_H_
