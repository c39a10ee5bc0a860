// Calibration phase of the traced run.
//
// Some layers run only inside Lock(): the RCU read side, trampolines,
// profiler taps, policy programs, the clock and the trace gate. After the
// window, this phase times each of them by calling its public function
// directly, and times one uncontended pair on private locks in each
// configuration (bare, with the JIT-compiled policy, with policy plus
// profiling): the pair ledger.
//
// It also fills in the per-layer metrics of layers the workload's own
// threads do not exercise (the mutex spans on pagefault, the readers-writer
// spans on hashtable and lock2), from the same wrappers on private locks.
// The printed basis of each metric says which phase it came from.

#ifndef PERFBENCH_SRC_CALIBRATE_H_
#define PERFBENCH_SRC_CALIBRATE_H_

#include <cstdint>

#include "src/clock.h"
#include "src/ledger.h"

namespace perfbench {

// `registered_lock_id` is a registered lock that is not being traced.
void Calibrate(const TickScale& scale, std::uint64_t registered_lock_id,
               Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CALIBRATE_H_
