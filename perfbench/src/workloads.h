// The three workloads, modelled on the paper's Figure 2 (see README.md for
// why each exists and what it stresses). Each runs one timed window in the
// calling process and fills `report`; a traced run (options.trace) records
// spans and runs the calibration phase afterwards.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>

#include "src/harness.h"
#include "src/ledger.h"

namespace perfbench {

void RunHashtable(const Options& options, Report& report);
void RunLock2(const Options& options, Report& report);
void RunPagefault(const Options& options, Report& report);

// Digests of the inputs each workload generates from `seed`.
std::uint64_t HashtableInputDigest(std::uint64_t seed);
std::uint64_t Lock2InputDigest(std::uint64_t seed);
std::uint64_t PagefaultInputDigest(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
