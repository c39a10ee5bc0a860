// x86-64 template JIT for verified policy programs.
//
// The fast execution tier behind every hook invocation: Concord::Attach
// compiles each verified program's bytecode to native code once, and the
// hook trampolines then call it like a plain C function. The interpreter
// (src/bpf/vm.cc) remains the reference semantics — the JIT is required to
// agree with it bit-for-bit on R0 and on every memory side effect, which
// tests/bpf/jit_differential_test.cc enforces on random programs.
//
// Safety model: the JIT consumes *verified* programs only. Every bound the
// verifier proved (no back edges, in-bounds stack/context/map-value access,
// whitelisted helpers with typed arguments) is inherited by the emitted
// code, so the template translation adds no runtime checks beyond the ones
// the interpreter also performs (the div/mod-by-zero branch). Emitted code
// lives in a W^X code cache (see code_cache.h).
//
// Fallback rules, in order:
//   - non-x86-64 build: Jit::Supported() is false, Compile() fails, every
//     program interprets;
//   - CONCORD_JIT=off|0|false in the environment (or a SetEnabledOverride):
//     attach-time compilation is skipped, programs interpret;
//   - Compile() fails for an individual program (unsupported instruction,
//     code-cache failure): that program interprets, the rest of the chain
//     still runs native.

#ifndef SRC_BPF_JIT_JIT_H_
#define SRC_BPF_JIT_JIT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/bpf/jit/abi.h"
#include "src/bpf/jit/code_cache.h"
#include "src/bpf/program.h"
#include "src/bpf/vm.h"
#include "src/topology/thread_context.h"

namespace concord {

// A compiled program: an owned executable region plus its typed entry point.
// Shared (via shared_ptr on Program) between every copy of the program a
// PolicySpec attach produces.
class JitProgram {
 public:
  // The native signature — see src/bpf/jit/abi.h for the full ABI.
  using Entry = std::uint64_t (*)(void* ctx, VmEnv* env);

  explicit JitProgram(jit::ExecutableCode code)
      : code_(std::move(code)),
        entry_(reinterpret_cast<Entry>(const_cast<void*>(code_.entry()))) {}

  // Runs the compiled code with R1 = ctx, mirroring BpfVm::Run. `program`
  // supplies the map table helpers resolve through VmEnv.
  std::uint64_t Run(const Program& program, void* ctx,
                    void* hook_data = nullptr) const {
    VmEnv env;
    env.program = &program;
    env.hook_data = hook_data;
    env.cpu = Self().vcpu;
    return entry_(ctx, &env);
  }

  std::size_t code_size() const { return code_.code_size(); }
  const std::uint8_t* code() const { return code_.data(); }

  // Hex dump of the emitted machine code (for concord_asm --jit-dump).
  std::string HexDump() const;

 private:
  jit::ExecutableCode code_;
  Entry entry_;
};

class Jit {
 public:
  // True when this build carries the x86-64 backend.
  static bool Supported();

  // True when attach-time compilation should happen: Supported(), and not
  // switched off via CONCORD_JIT=off|0|false or SetEnabledOverride(0).
  static bool Enabled();

  // Test/bench override: 1 forces on, 0 forces off, -1 restores the
  // environment default. Returns the previous override state.
  static int SetEnabledOverride(int state);

  // Compiles a verified program (CHECK-enforced, like BpfVm::Run). Does not
  // consult Enabled() — callers that want the policy-level gate go through
  // PolicySpec::JitCompileAll.
  static StatusOr<std::shared_ptr<const JitProgram>> Compile(
      const Program& program);
};

// RAII helper for tests/benchmarks that need a specific JIT mode.
class ScopedJitMode {
 public:
  explicit ScopedJitMode(bool enabled)
      : prev_(Jit::SetEnabledOverride(enabled ? 1 : 0)) {}
  ~ScopedJitMode() { Jit::SetEnabledOverride(prev_); }
  ScopedJitMode(const ScopedJitMode&) = delete;
  ScopedJitMode& operator=(const ScopedJitMode&) = delete;

 private:
  int prev_;
};

// The one place that picks a program's backend: native code when the
// program was compiled at attach, the C++ function of a precompiled
// program, the interpreter otherwise. Hook chains (RunDecisionChain in
// src/concord/policy.h) and tools call this instead of BpfVm::Run directly.
inline std::uint64_t RunPolicyProgram(const Program& program, void* ctx,
                                      void* hook_data = nullptr) {
  if (program.jit != nullptr) {
    return program.jit->Run(program, ctx, hook_data);
  }
  if (program.native != nullptr) {
    return program.native(program.native_data, ctx);
  }
  return BpfVm::Run(program, ctx, hook_data);
}

}  // namespace concord

#endif  // SRC_BPF_JIT_JIT_H_
