// concord_check — static analysis gate for lock policies.
//
// Loads each .casm file with LoadPolicy (src/concord/policy_source.h), the
// loader every attach surface uses: assemble, verify under the target hook's
// capability mask, apply the lock-invariant lint rules
// (src/concord/policy_lint.h), then certify (src/bpf/analysis/certify.h):
// shared-map race findings always reject; the WCET bound additionally
// rejects when a budget is known (from a `; budget_ns: <N>` directive or
// --budget-ns). Intended for CI: exits 0 only when every file passes all
// stages.
//
// Usage:
//   concord_check [--json] [--cost] [--races] [--hook <name>]
//                 [--budget-ns <N>] <file.casm>...
//   concord_check --list-hooks
//
// The hook is taken from a `; hook: <name>` comment directive in the file
// (conventionally the first line); `--hook` overrides it for every file. A
// malformed or unknown directive is reported with its line number. --cost
// and --races print the certification detail in human output; the --json
// report (WriteAdmissionJson) always carries both.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/concord/hooks.h"
#include "src/concord/policy_source.h"

namespace concord {
namespace {

// `program` is the admitted program, or null when the gate rejected it.
void PrintCost(const AdmissionReport& r, const Program* program) {
  const WcetReport& wcet = r.cert.wcet;
  std::printf(
      "  cost: wcet %llu ns (interp %llu, jit %llu), <= %llu insns",
      static_cast<unsigned long long>(wcet.certified_ns),
      static_cast<unsigned long long>(wcet.interp_ns),
      static_cast<unsigned long long>(wcet.jit_ns),
      static_cast<unsigned long long>(wcet.max_insns));
  if (r.budget_ns != 0) {
    std::printf(", budget %llu ns",
                static_cast<unsigned long long>(r.budget_ns));
  }
  std::printf("\n  dominated by insn %zu", wcet.hottest_pc);
  if (program != nullptr) {
    std::printf(" (`%s`)",
                DisassembleInsn(program->insns[wcet.hottest_pc]).c_str());
  }
  std::printf(" x %llu executions (%llu ns)\n",
              static_cast<unsigned long long>(wcet.hottest_multiplier),
              static_cast<unsigned long long>(wcet.hottest_pc_ns));
}

void PrintRaces(const AdmissionReport& r) {
  std::printf("  races: ");
  if (r.cert.races.map_classes.empty()) {
    std::printf("no maps");
  }
  for (std::size_t i = 0; i < r.cert.races.map_classes.size(); ++i) {
    std::printf("%smap[%zu] %s", i == 0 ? "" : ", ", i,
                MapAccessClassName(r.cert.races.map_classes[i]));
  }
  std::printf("\n");
  for (const auto& finding : r.cert.races.findings) {
    std::printf("  [%s] %s\n", finding.rule.c_str(), finding.message.c_str());
  }
}

void PrintHuman(const std::string& file, const AdmissionReport& r,
                const Program* program, bool show_cost, bool show_races) {
  if (r.ok()) {
    std::printf("%s: OK (hook %s, %zu insns, %zu states", file.c_str(),
                r.hook.c_str(), r.insns, r.analysis.states_processed);
    for (const auto& loop : r.analysis.loops) {
      std::printf(", loop@%zu<=%llu trips", loop.back_edge_pc,
                  static_cast<unsigned long long>(loop.max_trips));
    }
    std::printf(")\n");
  } else if (r.stage == "lint") {
    std::printf("%s: LINT FAILED (hook %s)\n", file.c_str(), r.hook.c_str());
    for (const auto& finding : r.lint.findings) {
      std::printf("  [%s] %s\n", finding.rule.c_str(), finding.message.c_str());
    }
    return;
  } else {
    std::printf("%s: %s FAILED: %s\n", file.c_str(), r.stage.c_str(),
                r.error.c_str());
    if (r.stage != "certify") {
      return;
    }
  }
  if (show_cost) {
    PrintCost(r, program);
  }
  if (show_races) {
    PrintRaces(r);
  }
}

void ListHooks() {
  for (int i = 0; i < kNumHookKinds; ++i) {
    const auto kind = static_cast<HookKind>(i);
    std::printf("%-16s ctx %s (%u bytes)\n", HookKindName(kind),
                DescriptorFor(kind).name().c_str(), DescriptorFor(kind).size());
  }
}

int Run(int argc, char** argv) {
  bool as_json = false;
  bool show_cost = false;
  bool show_races = false;
  std::string hook_override;
  std::optional<std::uint64_t> budget_override;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      as_json = true;
    } else if (arg == "--cost") {
      show_cost = true;
    } else if (arg == "--races") {
      show_races = true;
    } else if (arg == "--list-hooks") {
      ListHooks();
      return 0;
    } else if (arg == "--hook") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--hook needs an argument\n");
        return 2;
      }
      hook_override = argv[++i];
    } else if (arg == "--budget-ns") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--budget-ns needs an argument\n");
        return 2;
      }
      char* end = nullptr;
      budget_override = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "--budget-ns wants a decimal nanosecond count\n");
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--json] [--cost] [--races] [--hook <name>] "
                 "[--budget-ns <N>] <file.casm>...\n"
                 "       %s --list-hooks\n",
                 argv[0], argv[0]);
    return 2;
  }
  HookKind kind;
  if (!hook_override.empty() && !ParseHookKindName(hook_override, &kind)) {
    std::fprintf(stderr, "unknown hook '%s' (try --list-hooks)\n",
                 hook_override.c_str());
    return 2;
  }

  JsonWriter json;
  json.BeginArray();
  int failures = 0;
  for (const std::string& file : files) {
    AdmissionReport report;
    std::optional<PolicySpec> spec;
    std::ifstream in(file);
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      StatusOr<PolicySpec> loaded = LoadPolicy(file, buffer.str(),
                                               hook_override, budget_override,
                                               &report);
      if (loaded.ok()) {
        spec = std::move(*loaded);
      }
    } else {
      report.stage = "read";
      report.error = "cannot open file";
    }
    if (!report.ok()) {
      ++failures;
    }
    if (as_json) {
      WriteAdmissionJson(json, file, report);
      continue;
    }
    const Program* program = nullptr;
    if (spec.has_value() && ParseHookKindName(report.hook, &kind)) {
      program = &spec->ChainFor(kind).programs.front();
    }
    PrintHuman(file, report, program, show_cost, show_races);
  }
  json.EndArray();
  if (as_json) {
    std::printf("%s\n", json.str().c_str());
  } else if (failures > 0) {
    std::printf("%d of %zu file(s) failed\n", failures, files.size());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace concord

int main(int argc, char** argv) { return concord::Run(argc, argv); }
