// perfbench: runs one workload in this process and prints one JSON object
// with its metrics, checks and provenance. run.py drives it; see README.md.
//
//   perfbench --workload hashtable|lock2|pagefault --seed N --seconds S
//             [--trace 0|1] [--setup-only] [--out DIR] [--force-check-failure]
//
// Exit status: 0 when every check passed, 1 when a check or call failed (the
// JSON is still printed), 2 on bad arguments, 3 when no valid measurement
// could be made (nothing is printed on stdout).

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/bpf/jit/jit.h"
#include "src/harness.h"
#include "src/ledger.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

struct WorkloadEntry {
  const char* name;
  void (*run)(const Options&, Report&);
  std::uint64_t (*input_digest)(std::uint64_t);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"hashtable", RunHashtable, HashtableInputDigest},
    {"lock2", RunLock2, Lock2InputDigest},
    {"pagefault", RunPagefault, PagefaultInputDigest},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload hashtable|lock2|pagefault "
               "--seed N --seconds S [--trace 0|1] [--setup-only] [--out DIR] "
               "[--force-check-failure]\n",
               message);
  return 2;
}

bool ParseUint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

std::string Hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

std::string Gates() {
  return "{\"jit\":" + std::to_string(CONCORD_ENABLE_JIT) +
         ",\"trace\":" + std::to_string(CONCORD_TRACE) +
         ",\"hook_budgets\":" + std::to_string(CONCORD_HOOK_BUDGETS) +
         ",\"fault_injection\":" + std::to_string(CONCORD_FAULT_INJECTION) +
         ",\"jit_enabled_at_runtime\":" +
         (concord::Jit::Enabled() ? "true" : "false") + "}";
}

int Main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t number = 0;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value && ParseUint(argv[i + 1], &number)) {
      options.seed = number;
      have_seed = true;
      ++i;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      options.seconds = std::strtod(argv[++i], &end);
      have_seconds = *end == '\0' && options.seconds > 0 && options.seconds <= 600;
    } else if (arg == "--trace" && has_value && ParseUint(argv[i + 1], &number) &&
               number <= 1) {
      options.trace = number == 1;
      ++i;
    } else if (arg == "--out" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--force-check-failure") {
      options.force_check_failure = true;
    } else {
      return Usage(("bad argument: " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds) {
    return Usage("--seed and --seconds (0 < S <= 600) are required");
  }
  const WorkloadEntry* workload = nullptr;
  for (const WorkloadEntry& entry : kWorkloads) {
    if (options.workload == entry.name) {
      workload = &entry;
    }
  }
  if (workload == nullptr) {
    return Usage(("unknown workload: " + options.workload).c_str());
  }

  Report report;
  report.Info("workload", options.workload);
  report.InfoRaw("seed", std::to_string(options.seed));
  report.InfoRaw("trace", options.trace ? "1" : "0");
  report.Info("input_digest", Hex(workload->input_digest(options.seed)));
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  report.InfoRaw("gates", Gates());
  try {
    workload->run(options, report);
  } catch (const FatalError& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.message.c_str());
    return 3;
  }
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
