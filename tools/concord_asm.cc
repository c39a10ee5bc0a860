// concord_asm — assemble, admit and disassemble policy programs offline.
//
// The developer loop for writing a policy: edit the .casm file, run this
// tool against the target hook, read the gate's verdict before going
// anywhere near a lock.
//
// Usage:
//   concord_asm <hook> <file.casm>       load + disassemble
//   concord_asm --jit-dump <hook> <file.casm>
//                                        ... then JIT-compile and hex-dump
//                                        the native x86-64 code
//   concord_asm --hooks                  list hook names and context layouts
//
// `<hook>` is one of the Table-1 names (cmp_node, skip_shuffle,
// schedule_waiter, lock_acquire, lock_contended, lock_acquired,
// lock_release) or rw_mode. The file loads through LoadPolicy
// (src/concord/policy_source.h), so it gets the map table and the
// verify-lint-certify gate every attach path applies. `concord_check --cost
// --races` prints the verifier, cost and race facts for the same file.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/bpf/jit/jit.h"
#include "src/concord/hooks.h"
#include "src/concord/policy_source.h"

namespace concord {
namespace {

void PrintHooks() {
  std::printf("hook             granted capabilities         context fields\n");
  for (int i = 0; i < kNumHookKinds; ++i) {
    const auto kind = static_cast<HookKind>(i);
    const ContextDescriptor& desc = DescriptorFor(kind);
    const std::uint32_t caps = CapabilitiesFor(kind);
    std::string cap_names;
    if (caps & kCapRead) cap_names += "read ";
    if (caps & kCapMapRead) cap_names += "map-read ";
    if (caps & kCapMapWrite) cap_names += "map-write ";
    if (caps & kCapTrace) cap_names += "trace ";
    if (caps & kCapLockMutate) cap_names += "lock-mutate ";
    std::printf("%-16s %-28s ctx '%s' (%u bytes)\n", HookKindName(kind),
                cap_names.c_str(), desc.name().c_str(), desc.size());
    for (const ContextField& field : desc.fields()) {
      std::printf("%-16s %-28s   +%-3u %s%s (%u bytes)\n", "", "", field.offset,
                  field.name.c_str(), field.writable ? " [rw]" : "", field.width);
    }
  }
}

int Run(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--hooks") {
    PrintHooks();
    return 0;
  }
  const bool jit_dump = argc == 4 && std::string(argv[1]) == "--jit-dump";
  if (argc != 3 && !jit_dump) {
    std::fprintf(stderr,
                 "usage: %s [--jit-dump] <hook> <file.casm>\n"
                 "       %s --hooks\n",
                 argv[0], argv[0]);
    return 2;
  }
  const char* hook = argv[argc - 2];
  const char* path = argv[argc - 1];
  HookKind kind;
  if (!ParseHookKindName(hook, &kind)) {
    std::fprintf(stderr, "unknown hook '%s' (try --hooks)\n", hook);
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path);
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  AdmissionReport report;
  StatusOr<PolicySpec> spec = LoadPolicy(path, buffer.str(), hook,
                                         std::nullopt, &report);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s FAILED: %s\n", report.stage.c_str(),
                 report.error.c_str());
    return 1;
  }
  const Program& program = spec->ChainFor(kind).programs.front();
  std::printf("admitted %zu instructions against hook '%s' (capabilities "
              "used: 0x%x)\n\n",
              program.insns.size(), hook, program.used_capabilities);
  for (std::size_t pc = 0; pc < program.insns.size(); ++pc) {
    std::printf("%4zu: %s\n", pc, DisassembleInsn(program.insns[pc]).c_str());
  }

  if (jit_dump) {
    if (!Jit::Supported()) {
      std::fprintf(stderr, "\njit: no backend on this platform/build\n");
      return 1;
    }
    auto compiled = Jit::Compile(program);
    if (!compiled.ok()) {
      std::fprintf(stderr, "\njit: compile failed: %s\n",
                   compiled.status().ToString().c_str());
      return 1;
    }
    std::printf("\njit: %zu bytes of x86-64 code\n%s",
                compiled.value()->code_size(),
                compiled.value()->HexDump().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace concord

int main(int argc, char** argv) { return concord::Run(argc, argv); }
