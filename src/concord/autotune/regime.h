// Contention-regime classification — the "observe" half of the autotune
// control plane (docs/AUTOTUNE.md).
//
// The paper's thesis is that the right lock policy depends on the context a
// deployment actually sees; this module names the contexts. Each profiling
// window of a lock is reduced to a RegimeSignals block (rates, wait
// percentiles, NUMA spread) and classified into one of five regimes by a
// threshold classifier whose knobs live in ClassifierConfig; its raw
// per-window verdicts are debounced by RegimeHysteresis so one noisy window
// cannot flip a policy.

#ifndef SRC_CONCORD_AUTOTUNE_REGIME_H_
#define SRC_CONCORD_AUTOTUNE_REGIME_H_

#include <cstdint>

#include "src/concord/profiler.h"

namespace concord {

enum class ContentionRegime : std::uint8_t {
  kUncontended,   // fast-path acquisitions; any policy is pure overhead
  kModerate,      // real contention, no structural pattern
  kNumaSkewed,    // contended handoffs bounce between sockets
  kReaderHeavy,   // rw lock dominated by readers
  kPathological,  // starvation-grade tails or near-total contention
};
inline constexpr int kNumContentionRegimes = 5;

const char* ContentionRegimeName(ContentionRegime regime);

// What one profiling window of one lock looks like to the classifier.
// Computed from a LockProfileSnapshot delta by FromWindow; tests feed
// synthetic values directly.
struct RegimeSignals {
  double acquisitions_per_sec = 0.0;
  std::uint64_t window_acquisitions = 0;
  double contention_rate = 0.0;   // contended / acquisitions
  std::uint64_t wait_p50_ns = 0;  // contended acquisitions only
  std::uint64_t wait_p99_ns = 0;
  std::uint64_t hold_p50_ns = 0;
  std::uint32_t active_sockets = 0;  // sockets with >=10% of acquisitions
  double cross_socket_rate = 0.0;    // cross-socket handoffs / contentions
  double reader_fraction = 0.0;      // rw locks: read share; no window sets it
  bool is_rw = false;

  static RegimeSignals FromWindow(const LockProfileSnapshot& window,
                                  bool is_rw);
};

struct ClassifierConfig {
  // Below this contention rate the lock counts as uncontended.
  double uncontended_max_rate = 0.05;

  // Pathological when the contention rate reaches this...
  double pathological_min_rate = 0.95;
  // ...or the p99 wait reaches this (starvation-grade tail).
  std::uint64_t pathological_wait_p99_ns = 50'000'000;  // 50ms

  // NUMA-skewed needs real contention, at least this many active sockets,
  // and contended grants crossing sockets at this rate.
  double numa_min_contention = 0.10;
  std::uint32_t numa_min_sockets = 2;
  double numa_min_cross_rate = 0.25;

  // Reader-heavy (rw locks only): read share beyond this.
  double reader_heavy_min_fraction = 0.75;
};

// Threshold classifier, memoryless between calls. Precedence: pathological >
// reader-heavy > NUMA-skewed > uncontended > moderate — the more specific
// (and more actionable) regimes win.
class DefaultRegimeClassifier {
 public:
  explicit DefaultRegimeClassifier(ClassifierConfig config = {})
      : config_(config) {}

  ContentionRegime Classify(const RegimeSignals& signals) const;

  const ClassifierConfig& config() const { return config_; }

 private:
  ClassifierConfig config_;
};

// Debounce: the stable regime changes only after `windows_required`
// consecutive raw verdicts agree on the same new regime. A verdict matching
// the stable regime resets any pending switch.
class RegimeHysteresis {
 public:
  explicit RegimeHysteresis(std::uint32_t windows_required = 2)
      : required_(windows_required == 0 ? 1 : windows_required) {}

  // Feeds one raw verdict; returns the (possibly updated) stable regime.
  ContentionRegime Observe(ContentionRegime raw);

  ContentionRegime stable() const { return stable_; }

 private:
  std::uint32_t required_;
  ContentionRegime stable_ = ContentionRegime::kUncontended;
  ContentionRegime pending_ = ContentionRegime::kUncontended;
  std::uint32_t pending_count_ = 0;
};

}  // namespace concord

#endif  // SRC_CONCORD_AUTOTUNE_REGIME_H_
