// Timers owned by the benchmark, so that a library change cannot change the
// instrument that measures it.
//
// Samples and spans are taken in TSC ticks, which cost a fraction of a
// CLOCK_MONOTONIC read on a VM, and converted to nanoseconds with a scale
// measured against CLOCK_MONOTONIC over the timed window. Converted values
// keep their fractional digits.

#ifndef PERFBENCH_SRC_CLOCK_H_
#define PERFBENCH_SRC_CLOCK_H_

#include <time.h>

#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

// CLOCK_MONOTONIC in nanoseconds.
inline std::uint64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// CPU time of every thread of the process, in nanoseconds.
inline std::uint64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline std::uint64_t Ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return MonoNs();
#endif
}

// Ticks-to-nanoseconds conversion, measured over an interval.
class TickScale {
 public:
  void Start() {
    mono0_ = MonoNs();
    ticks0_ = Ticks();
  }
  void Stop() {
    const std::uint64_t mono1 = MonoNs();
    const std::uint64_t ticks1 = Ticks();
    if (ticks1 > ticks0_ && mono1 > mono0_) {
      ns_per_tick_ = static_cast<double>(mono1 - mono0_) /
                     static_cast<double>(ticks1 - ticks0_);
    }
  }
  double Ns(std::uint64_t ticks) const {
    return static_cast<double>(ticks) * ns_per_tick_;
  }
  double ns_per_tick() const { return ns_per_tick_; }

 private:
  std::uint64_t mono0_ = 0;
  std::uint64_t ticks0_ = 0;
  double ns_per_tick_ = 1.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CLOCK_H_
