// Policy specifications — what a userspace controller hands to Concord.
//
// A PolicySpec bundles, per hook kind, an ordered chain of programs plus a
// combinator saying how multiple programs compose (§6 "composing policies"
// — we provide the mechanical combinators; resolving semantic conflicts
// remains the policy author's job, as in the paper). A program is BPF
// (interpreted, or JIT-compiled at attach) or precompiled C++ (AddNative),
// and all three run through one call, RunPolicyProgram. Every BPF program
// passes one admission gate at attach (VerifyAll): the verifier under the
// hook's capability mask, the hook's lock-invariant lint (policy_lint.h),
// then certification (src/bpf/analysis/certify.h). A spec that fails any
// stage never reaches a lock, whether it was built in code or loaded from
// text (policy_source.h).

#ifndef SRC_CONCORD_POLICY_H_
#define SRC_CONCORD_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/bpf/analysis/certify.h"
#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/concord/hooks.h"
#include "src/concord/policy_lint.h"

namespace concord {

// How the results of a multi-program chain combine into one decision.
enum class Combinator : std::uint8_t {
  kFirstNonZero,  // first program returning nonzero decides (default)
  kAll,           // decision is 1 iff every program returns nonzero
  kAny,           // decision is 1 iff any program returns nonzero
};

struct HookChain {
  std::vector<Program> programs;
  Combinator combinator = Combinator::kFirstNonZero;

  bool empty() const { return programs.empty(); }
};

// Runs every program of `chain` that the combinator needs, in order, on
// `ctx`, and returns the combined decision. An empty chain decides 0, or 1
// under kAll (vacuous truth).
std::uint64_t RunDecisionChain(const HookChain& chain, void* ctx);

// What the admission gate found about a program, filled as far as the gate
// got. The loader (policy_source.h) adds where the hook and budget came from.
struct AdmissionReport {
  // The failing stage ("hook", "assemble", "verify", "lint" or "certify"),
  // empty once admitted; `error` is that stage's status.
  std::string stage;
  std::string error;
  std::string hook;
  int hook_line = 0;  // line of the `; hook:` directive; 0 = named by caller
  std::uint64_t budget_ns = 0;
  std::size_t insns = 0;
  Verifier::Analysis analysis;
  // The context fields the program loads (Program::ctx_fields_read), in
  // field order, and Program::writes_map and map_pure, once it verified.
  std::vector<std::string> reads;
  bool writes_map = false;
  bool map_pure = false;
  LintReport lint;
  CertificationReport cert;

  bool ok() const { return stage.empty(); }
};

struct PolicySpec {
  std::string name;

  // One chain per hook kind (indexed by HookKind).
  HookChain chains[kNumHookKinds];

  // Keep-alive for maps referenced by the programs. Programs hold raw
  // BpfMap*; anything those pointers refer to must be (co-)owned here unless
  // the caller guarantees a longer lifetime out of band.
  std::vector<std::shared_ptr<BpfMap>> maps;

  // ShflLock knobs applied at attach.
  std::uint32_t max_shuffle_rounds = 64;
  std::uint32_t max_waiter_bypasses = 128;  // per-waiter starvation bound

  // Runtime budget per hook invocation (0 = none, and no budget accounting)
  // and how many overruns trip containment. See src/concord/containment.h.
  std::uint64_t hook_budget_ns = 0;
  std::uint32_t hook_budget_trip = 8;

  // Adds `program` to the chain for `kind`. Fails if the program was built
  // against the wrong context descriptor.
  Status AddProgram(HookKind kind, Program program);

  // Adds a precompiled program to the chain for `kind`: `fn` runs with
  // `data` and the hook's context struct (CmpNodeCtx, SkipShuffleCtx,
  // ScheduleWaiterCtx, ProfileCtx or RwModeCtx; src/concord/hooks.h). It
  // counts as reading every field of that struct, so a lock produces every
  // value it could read (LockValue).
  void AddNative(HookKind kind, std::string program_name, Program::NativeFn fn,
                 void* data = nullptr);

  HookChain& ChainFor(HookKind kind) {
    return chains[static_cast<int>(kind)];
  }
  const HookChain& ChainFor(HookKind kind) const {
    return chains[static_cast<int>(kind)];
  }

  // The admission gate, per BPF program in every chain: verify under the
  // hook's capability mask, lint the hook's lock invariants, then certify
  // (the statically bounded worst case must fit hook_budget_ns when nonzero,
  // and no program may do a non-atomic store into a shared map). Lint
  // findings and certification failures are kPermissionDenied. Precompiled
  // programs are C++ linked into the process and pass unchecked. Idempotent;
  // called by Concord at attach, so no spec reaches a lock unchecked.
  // `report`, when non-null, describes the last program checked (the
  // failing one).
  Status VerifyAll(AdmissionReport* report = nullptr);

  // Compiles every verified program to native code when the JIT is enabled
  // (Jit::Enabled()). A program that fails to compile simply keeps running
  // on the interpreter — compilation is a pure acceleration, never a
  // functional requirement. Idempotent; called by Concord at attach, after
  // VerifyAll. Returns the number of programs that fell back to the
  // interpreter (recorded by containment as an informational event).
  std::uint32_t JitCompileAll();
};

}  // namespace concord

#endif  // SRC_CONCORD_POLICY_H_
