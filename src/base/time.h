// Monotonic time helpers used by the profiler and benchmarks, plus an
// injectable clock for control-plane logic (watchdog, containment backoff,
// hook budgets) so those paths are testable without real sleeps.

#ifndef SRC_BASE_TIME_H_
#define SRC_BASE_TIME_H_

#include <time.h>

#include <atomic>
#include <cstdint>

namespace concord {

// Monotonic nanoseconds. Not wall-clock; suitable only for durations.
inline std::uint64_t MonotonicNowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Busy-burn roughly `ns` nanoseconds of CPU work; models a critical-section
// body of known length in benchmarks (does not yield; use only for short ns).
void BurnNs(std::uint64_t ns);

// --- injectable clock --------------------------------------------------------
//
// Control-plane time (watchdog polling baselines, containment backoff
// schedules, hook-budget timing, profile snapshots) and flight-recorder
// events go through ClockNowNs() so tests can install a FakeClock and drive
// them deterministically — the override check is a single relaxed load that
// predicts perfectly, and these paths already pay a clock read. Lock hot
// paths (waiter views, the stamps of a timed acquisition that feed the
// hold-time EWMA and the profiler's wait/hold histograms) keep calling
// MonotonicNowNs() directly: they never make timeout decisions, and tests
// drive the profiler with stamps of their own.

class ClockInterface {
 public:
  virtual ~ClockInterface() = default;
  virtual std::uint64_t NowNs() = 0;
};

namespace detail {
extern std::atomic<ClockInterface*> g_clock_override;
}  // namespace detail

// Monotonic nanoseconds from the installed override, or the real clock when
// none is installed (the production configuration).
inline std::uint64_t ClockNowNs() {
  ClockInterface* clock = detail::g_clock_override.load(std::memory_order_acquire);
  return clock == nullptr ? MonotonicNowNs() : clock->NowNs();
}

// Installs `clock` as the process-wide time source for ClockNowNs();
// nullptr restores the real clock. Test-only; not synchronized against
// concurrent ClockNowNs() callers beyond the atomic swap itself, so install
// before starting threads that read the clock.
ClockInterface* SetClockOverrideForTest(ClockInterface* clock);

// A manually-advanced clock. Thread-safe: workers may read NowNs() while the
// test thread advances it.
class FakeClock : public ClockInterface {
 public:
  explicit FakeClock(std::uint64_t start_ns = 1) : now_ns_(start_ns) {}

  std::uint64_t NowNs() override { return now_ns_.load(std::memory_order_acquire); }

  void AdvanceNs(std::uint64_t delta_ns) {
    now_ns_.fetch_add(delta_ns, std::memory_order_acq_rel);
  }
  void AdvanceMs(std::uint64_t delta_ms) { AdvanceNs(delta_ms * 1'000'000ull); }

 private:
  std::atomic<std::uint64_t> now_ns_;
};

// RAII install/uninstall of a FakeClock for a test scope.
class ScopedFakeClock {
 public:
  explicit ScopedFakeClock(std::uint64_t start_ns = 1)
      : clock_(start_ns), prev_(SetClockOverrideForTest(&clock_)) {}
  ~ScopedFakeClock() { SetClockOverrideForTest(prev_); }
  ScopedFakeClock(const ScopedFakeClock&) = delete;
  ScopedFakeClock& operator=(const ScopedFakeClock&) = delete;

  FakeClock& clock() { return clock_; }

 private:
  FakeClock clock_;
  ClockInterface* prev_;
};

}  // namespace concord

#endif  // SRC_BASE_TIME_H_
