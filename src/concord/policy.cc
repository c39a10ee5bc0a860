#include "src/concord/policy.h"

#include "src/bpf/jit/jit.h"

namespace concord {

std::uint64_t RunDecisionChain(const HookChain& chain, void* ctx) {
  switch (chain.combinator) {
    case Combinator::kFirstNonZero:
      for (const Program& program : chain.programs) {
        const std::uint64_t result = RunPolicyProgram(program, ctx);
        if (result != 0) {
          return result;
        }
      }
      return 0;
    case Combinator::kAll:
      for (const Program& program : chain.programs) {
        if (RunPolicyProgram(program, ctx) == 0) {
          return 0;
        }
      }
      return 1;
    case Combinator::kAny:
      for (const Program& program : chain.programs) {
        if (RunPolicyProgram(program, ctx) != 0) {
          return 1;
        }
      }
      return 0;
  }
  return 0;
}

Status PolicySpec::AddProgram(HookKind kind, Program program) {
  const ContextDescriptor& expected = DescriptorFor(kind);
  if (program.ctx_desc != &expected) {
    return InvalidArgumentError(
        "program '" + program.name + "' was built against context '" +
        (program.ctx_desc != nullptr ? program.ctx_desc->name() : "<none>") +
        "' but hook " + HookKindName(kind) + " requires '" + expected.name() +
        "'");
  }
  ChainFor(kind).programs.push_back(std::move(program));
  return Status::Ok();
}

void PolicySpec::AddNative(HookKind kind, std::string program_name,
                           Program::NativeFn fn, void* data) {
  Program program;
  program.name = std::move(program_name);
  program.ctx_desc = &DescriptorFor(kind);
  program.native = fn;
  program.native_data = data;
  program.ctx_fields_read = ~std::uint64_t{0};
  ChainFor(kind).programs.push_back(std::move(program));
}

Status PolicySpec::VerifyAll(AdmissionReport* report) {
  AdmissionReport local;
  AdmissionReport& r = report != nullptr ? *report : local;
  for (int k = 0; k < kNumHookKinds; ++k) {
    const auto kind = static_cast<HookKind>(k);
    Verifier::Options options;
    options.allowed_capabilities = CapabilitiesFor(kind);
    for (Program& program : chains[k].programs) {
      if (program.native != nullptr) {
        continue;
      }
      r.hook = HookKindName(kind);
      r.budget_ns = hook_budget_ns;
      r.insns = program.insns.size();
      r.analysis = {};
      r.reads.clear();
      r.writes_map = false;
      r.map_pure = false;
      r.lint = {};
      r.cert = {};
      // Lint and certification need the verifier's analysis facts (return
      // range, loop bounds, map access sites), so pre-verified programs are
      // re-explored rather than skipped — attach is a control-plane
      // operation where the extra milliseconds buy every gate for every
      // path in.
      r.stage = "verify";
      Status status = Verifier::Verify(program, options, &r.analysis);
      if (status.ok()) {
        const std::vector<ContextField>& fields = program.ctx_desc->fields();
        for (std::size_t i = 0; i < fields.size(); ++i) {
          if ((program.ctx_fields_read >> i & 1) != 0) {
            r.reads.push_back(fields[i].name);
          }
        }
        r.stage = "lint";
        r.writes_map = program.writes_map;
        r.map_pure = program.map_pure;
        r.lint = LintPolicyProgram(kind, program, r.analysis);
        if (!r.lint.ok()) {
          std::string message = "policy violates " + r.hook + " contract:";
          for (const LintFinding& finding : r.lint.findings) {
            message += "\n" + finding.rule + ": " + finding.message;
          }
          status = PermissionDeniedError(message);
        }
      }
      if (status.ok()) {
        r.stage = "certify";
        status = CertifyProgram(program, r.analysis, hook_budget_ns, &r.cert);
      }
      if (!status.ok()) {
        r.error = status.ToString();
        return Status(status.code(), "policy '" + name + "', hook " + r.hook +
                                         ", program '" + program.name +
                                         "': " + status.message());
      }
      r.stage.clear();
    }
  }
  return Status::Ok();
}

std::uint32_t PolicySpec::JitCompileAll() {
  if (!Jit::Enabled()) {
    return 0;
  }
  std::uint32_t failures = 0;
  for (int k = 0; k < kNumHookKinds; ++k) {
    for (Program& program : chains[k].programs) {
      if (!program.verified || program.jit != nullptr) {
        continue;
      }
      StatusOr<std::shared_ptr<const JitProgram>> compiled =
          Jit::Compile(program);
      if (compiled.ok()) {
        program.jit = std::move(compiled.value());
      } else {
        // The program keeps jit == nullptr and interprets.
        ++failures;
      }
    }
  }
  return failures;
}

}  // namespace concord
