// Shared machinery of the three workloads: options, the timed window and its
// threads, fixed-size sample stores, and the metrics every workload reports
// the same way.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/clock.h"
#include "src/ledger.h"
#include "src/spans.h"

namespace concord {
class ShflLock;
}  // namespace concord

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Runs set-up, opens the window and closes it at once: one set-up sample.
  bool setup_only = false;
  // Makes one correctness check fail, to test the failure path.
  bool force_check_failure = false;
  std::string out_dir = ".bench_out";
};

// Thrown for a run that cannot produce a valid measurement at all (for
// example a policy program that fell back to the interpreter).
struct FatalError {
  std::string message;
};

// Latency samples (ticks) bucketed by the window slice they were taken in,
// at most `per_slice` kept per slice. Storage for `seconds` of window is
// allocated and touched at construction, before set-up starts.
class SliceSamples {
 public:
  SliceSamples(std::size_t per_slice, double seconds);
  void Add(std::uint32_t slice, std::uint64_t ticks) {
    const std::size_t s = slice < counts_.size() ? slice : counts_.size() - 1;
    std::uint32_t& n = counts_[s];
    if (n < per_slice_) {
      data_[s * per_slice_ + n++] =
          ticks > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(ticks);
    }
    ++timed_;
  }
  // Appends the samples kept for `slice` to `out`.
  void AppendSlice(std::size_t slice, std::vector<double>& out) const;
  std::uint64_t timed() const { return timed_; }

 private:
  std::size_t per_slice_;
  std::vector<std::uint32_t> data_;
  std::vector<std::uint32_t> counts_;
  std::uint64_t timed_ = 0;
};

// Start gate, stop flag and clocks of one timed window. Both sides of the
// gate block rather than spin: set-up is timed in CPU time, which spinning
// would inflate by however long the threads wait for a CPU.
class Window {
 public:
  // Worker side: announces readiness and waits for Start(). Returns false if
  // the window closed without starting.
  bool Ready();
  bool Running() const { return !stop_.load(std::memory_order_relaxed); }
  // Index of the current kSliceNs slice of the window.
  std::uint32_t slice() const { return slice_.load(std::memory_order_relaxed); }

  // Main side.
  void WaitReady(int threads) const;
  void Start();               // stamps the start, then releases the workers
  void Stop();                // raises the stop flag (idempotent)
  // Sleeps until `seconds` after Start(), noting `progress()` (ops done so
  // far) at every kSliceNs boundary and at the end, and advancing slice().
  void SleepFor(double seconds, const std::function<std::uint64_t()>& progress);
  void Finish();              // after the workers joined: stamps the end

  static constexpr std::uint64_t kSliceNs = 1'000'000'000;

  // Ops per second of each whole slice of the window.
  std::vector<double> SliceRates() const;
  std::uint64_t start_mono_ns() const { return start_mono_ns_; }
  std::uint64_t start_cpu_ns() const { return start_cpu_ns_; }
  std::uint64_t start_ticks() const { return start_ticks_; }
  double elapsed_s() const {
    return static_cast<double>(end_mono_ns_ - start_mono_ns_) / 1e9;
  }
  const TickScale& scale() const { return scale_; }
  const rusage& usage_start() const { return usage_start_; }
  const rusage& usage_end() const { return usage_end_; }

 private:
  std::atomic<int> ready_{0};
  std::atomic<bool> go_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint32_t> slice_{0};
  std::uint64_t start_mono_ns_ = 0;
  std::uint64_t start_cpu_ns_ = 0;
  std::uint64_t end_mono_ns_ = 0;
  std::uint64_t start_ticks_ = 0;
  TickScale scale_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> marks_;  // (ns, ops)
  rusage usage_start_{};
  rusage usage_end_{};
};

// Threads of one window. The destructor stops the window and joins, so no
// thread outlives the data it uses, on error paths too.
class ThreadGroup {
 public:
  explicit ThreadGroup(Window& window) : window_(window) {}
  ~ThreadGroup() { JoinAll(); }
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;

  // Runs `body` on a new thread registered on virtual CPU `vcpu`, after the
  // window's start gate.
  void Spawn(std::uint32_t vcpu, std::function<void()> body);
  int size() const { return static_cast<int>(threads_.size()); }
  void JoinAll();

 private:
  Window& window_;
  std::vector<std::thread> threads_;
};

// Per-worker counters, one cache line apart. `progress` is published every
// batch of ops for the window's slice rates.
struct alignas(64) WorkerTally {
  std::atomic<std::uint64_t> progress{0};
  std::uint64_t ops = 0;
  std::uint64_t failed_calls = 0;

  void Publish(std::uint64_t ops_so_far) {
    progress.store(ops_so_far, std::memory_order_relaxed);
  }
};

// Marks the start of set-up (setup_s runs from here to the window's start).
// Workloads call it after allocating the benchmark's own buffers and
// generating its inputs, so that setup_s is the library's set-up plus thread
// start: page-faulting megabytes of fresh sample buffers, like exec and
// dynamic loading, swings twofold with the host's load.
void StampSetupStart(Report& report);

// The window's start (the end of set-up) and tick scale, for run.py.
void ReportWindowInfo(const Window& window, Report& report);

// ops_per_s, the median of the slices' rates, so that a burst of load from
// elsewhere on the host moves one slice rather than the result; and
// op_p50_ns/op_p99_ns, the percentiles of all latency samples kept in the
// window's whole slices.
void ReportThroughput(const Window& window, std::uint64_t ops,
                      const std::vector<const SliceSamples*>& latency,
                      Report& report);

// proc.*: getrusage deltas over the window.
void ReportProcess(const Window& window, std::uint64_t ops, Report& report);

// Span-based per-layer metrics (kernelsim.*, sync.*, control plane), each
// added only if the report does not have it yet. `src` names the phase.
void ReportSpans(const SpanSummary& summary, double ns_per_tick,
                 const char* src, Report& report);

// ShflLock's own counters, read at a window boundary.
struct ShflCounters {
  explicit ShflCounters(const concord::ShflLock& lock);
  std::uint64_t acquisitions = 0;
  std::uint64_t shuffle_rounds = 0;
  std::uint64_t shuffle_moves = 0;
  std::uint64_t parks = 0;
};

// sync.shuffle_rounds_per_kop, sync.shuffle_moves_per_round and
// sync.parks_per_kop over `ops` ops, unless already reported.
void ReportShflCounters(const ShflCounters& before, const ShflCounters& after,
                        std::uint64_t ops, const char* source, Report& report);

// concord.contended_share: profiler contentions over acquisitions, unless
// already reported.
void ReportContention(std::uint64_t acquisitions, std::uint64_t contentions,
                      const char* source, Report& report);

// Peak resident set, read once the library's work is done and before the
// benchmark's own checks and analysis allocate.
void ReportPeakRss(Report& report);

// Writes the spans to <out_dir>/spans-<workload>-seed<seed>.tsv and notes
// how many were recorded and how many did not fit.
void WriteSpanFile(const Options& options, const Window& window,
                   const std::vector<const SpanBuffer*>& buffers,
                   Report& report);

// Cheap per-thread Bernoulli sampler for picking which ops to time or trace;
// seeded, so the same seed samples the same ops.
class OpSampler {
 public:
  OpSampler(std::uint64_t seed, std::uint32_t one_in)
      : state_(seed | 1), mask_(one_in - 1) {}
  bool Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return (state_ & mask_) == 0;
  }

 private:
  std::uint64_t state_;
  std::uint64_t mask_;  // one_in is a power of two
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
