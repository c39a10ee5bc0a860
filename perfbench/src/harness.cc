#include "src/harness.h"

#include <sys/stat.h>
#include <time.h>

#include <cinttypes>
#include <cstdio>
#include <tuple>

#include "src/sync/shfllock.h"
#include "src/topology/thread_context.h"

namespace perfbench {

SliceSamples::SliceSamples(std::size_t per_slice, double seconds)
    : per_slice_(per_slice) {
  const auto slices = static_cast<std::size_t>(
      seconds * 1e9 / static_cast<double>(Window::kSliceNs) + 2);
  data_.assign(per_slice * slices, 1);
  counts_.assign(slices, 0);
}

void SliceSamples::AppendSlice(std::size_t slice, std::vector<double>& out) const {
  if (slice < counts_.size()) {
    const auto first = data_.begin() + static_cast<std::ptrdiff_t>(slice * per_slice_);
    out.insert(out.end(), first, first + counts_[slice]);
  }
}

bool Window::Ready() {
  ready_.fetch_add(1, std::memory_order_acq_rel);
  ready_.notify_all();
  go_.wait(false, std::memory_order_acquire);
  return Running();
}

void Window::WaitReady(int threads) const {
  for (int ready = ready_.load(std::memory_order_acquire); ready < threads;
       ready = ready_.load(std::memory_order_acquire)) {
    ready_.wait(ready, std::memory_order_acquire);
  }
}

void Window::Start() {
  start_cpu_ns_ = ProcessCpuNs();
  getrusage(RUSAGE_SELF, &usage_start_);
  scale_.Start();
  start_ticks_ = Ticks();
  start_mono_ns_ = MonoNs();
  go_.store(true, std::memory_order_release);
  go_.notify_all();
}

void Window::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  go_.store(true, std::memory_order_release);
  go_.notify_all();
}

void Window::SleepFor(double seconds,
                      const std::function<std::uint64_t()>& progress) {
  const std::uint64_t deadline =
      start_mono_ns_ + static_cast<std::uint64_t>(seconds * 1e9);
  marks_.emplace_back(start_mono_ns_, 0);
  for (std::uint64_t next = start_mono_ns_ + kSliceNs;; next += kSliceNs) {
    const std::uint64_t until = next < deadline ? next : deadline;
    for (std::uint64_t now = MonoNs(); now < until; now = MonoNs()) {
      const std::uint64_t left = until - now;
      timespec ts{static_cast<time_t>(left / 1'000'000'000ull),
                  static_cast<long>(left % 1'000'000'000ull)};
      nanosleep(&ts, nullptr);
    }
    marks_.emplace_back(MonoNs(), progress());
    slice_.fetch_add(1, std::memory_order_relaxed);
    if (until == deadline) {
      return;
    }
  }
}

std::vector<double> Window::SliceRates() const {
  std::vector<double> rates;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    const double seconds =
        static_cast<double>(marks_[i].first - marks_[i - 1].first) / 1e9;
    rates.push_back(static_cast<double>(marks_[i].second - marks_[i - 1].second) /
                    seconds);
  }
  return rates;
}

void Window::Finish() {
  end_mono_ns_ = MonoNs();
  scale_.Stop();
  getrusage(RUSAGE_SELF, &usage_end_);
}

void ThreadGroup::Spawn(std::uint32_t vcpu, std::function<void()> body) {
  threads_.emplace_back([this, vcpu, body = std::move(body)] {
    concord::ThreadRegistry::Global().RegisterCurrent(vcpu);
    if (window_.Ready()) {
      body();
    }
  });
}

void ThreadGroup::JoinAll() {
  window_.Stop();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
}

void StampSetupStart(Report& report) {
  report.InfoRaw("setup_start_cpu_ns", std::to_string(ProcessCpuNs()));
  report.InfoRaw("setup_start_mono_ns", std::to_string(MonoNs()));
}

void ReportWindowInfo(const Window& window, Report& report) {
  report.InfoRaw("window_start_mono_ns", std::to_string(window.start_mono_ns()));
  report.InfoRaw("window_start_cpu_ns", std::to_string(window.start_cpu_ns()));
  report.InfoRaw("ns_per_tick", JsonNumber(window.scale().ns_per_tick()));
}

void ReportThroughput(const Window& window, std::uint64_t ops,
                      const std::vector<const SliceSamples*>& latency,
                      Report& report) {
  const double seconds = window.elapsed_s();
  std::vector<double> rates = window.SliceRates();
  std::string rates_json = "[";
  for (double rate : rates) {
    if (rates_json.size() > 1) {
      rates_json += ',';
    }
    rates_json += JsonNumber(rate);
  }
  report.InfoRaw("slice_ops_per_s", rates_json + "]");
  const std::size_t slices = rates.size();
  char basis[200];
  std::snprintf(basis, sizeof(basis),
                "median of %zu slices' rates; %" PRIu64 " ops in %.3f s overall",
                slices, ops, seconds);
  report.Add("ops_per_s", ReportPercentile(rates, 50).value, "ops/s", ops, basis);

  // Percentiles over every kept sample of the window's whole slices. Each
  // slice's own percentile is taken too, and the median of those printed
  // beside the result.
  std::uint64_t timed = 0;
  for (const SliceSamples* samples : latency) {
    timed += samples->timed();
  }
  std::vector<double> kept;
  std::vector<double> slice_p50s;
  std::vector<double> slice_p99s;
  for (std::size_t slice = 0; slice < slices; ++slice) {
    std::vector<double> pool;
    for (const SliceSamples* samples : latency) {
      samples->AppendSlice(slice, pool);
    }
    if (pool.empty()) {
      continue;
    }
    kept.insert(kept.end(), pool.begin(), pool.end());
    slice_p50s.push_back(ReportPercentile(pool, 50).value);
    slice_p99s.push_back(ReportPercentile(pool, 99).value);
  }
  if (kept.empty()) {
    return;
  }
  const double ns = window.scale().ns_per_tick();
  for (auto [name, wanted, per_slice] :
       {std::tuple{"op_p50_ns", 50.0, &slice_p50s},
        std::tuple{"op_p99_ns", 99.0, &slice_p99s}}) {
    const Percentile p = ReportPercentile(kept, wanted);
    std::snprintf(basis, sizeof(basis),
                  "p%g of %zu kept of %" PRIu64
                  " timed ops%s; median of %zu slices' own: %.1f ns",
                  p.percentile, p.samples, timed,
                  p.percentile < wanted ? " (too few for the tail)" : "",
                  per_slice->size(), ReportPercentile(*per_slice, 50).value * ns);
    report.Add(name, p.value * ns, "ns", p.samples, basis);
  }
}

namespace {

double TimevalNs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e9 + static_cast<double>(tv.tv_usec) * 1e3;
}

}  // namespace

void ReportProcess(const Window& window, std::uint64_t ops, Report& report) {
  const rusage& a = window.usage_start();
  const rusage& b = window.usage_end();
  const double per_op = ops == 0 ? 0 : 1.0 / static_cast<double>(ops);
  const double cpu_ns = TimevalNs(b.ru_utime) - TimevalNs(a.ru_utime) +
                        TimevalNs(b.ru_stime) - TimevalNs(a.ru_stime);
  const double switches = static_cast<double>((b.ru_nvcsw - a.ru_nvcsw) +
                                               (b.ru_nivcsw - a.ru_nivcsw));
  const double faults = static_cast<double>(b.ru_minflt - a.ru_minflt);
  report.Add("proc.cpu_ns_per_op", cpu_ns * per_op, "ns/op", ops,
             "getrusage over the window");
  report.Add("proc.ctx_switches_per_kop", switches * per_op * 1000, "1/kop", ops,
             "getrusage over the window");
  report.Add("proc.minor_faults_per_kop", faults * per_op * 1000, "1/kop", ops,
             "getrusage over the window");
}

namespace {

// Span metrics are added only once: the window's spans first, then the
// calibration phase fills in the layers the workload did not exercise.
void AddMean(Report& report, const char* name, const std::vector<double>& ticks,
             double scale, const char* unit, const char* source) {
  if (ticks.empty() || report.Has(name)) {
    return;
  }
  report.Add(name, Mean(ticks) * scale, unit, ticks.size(),
             std::string("mean of ") + std::to_string(ticks.size()) + " spans, " +
                 source);
}

void AddTail(Report& report, const char* name, std::vector<double> ticks,
             double scale, const char* unit, const char* source) {
  if (ticks.empty() || report.Has(name)) {
    return;
  }
  report.AddPercentile(name, ticks, 99, unit, scale, source);
}

}  // namespace

void ReportSpans(const SpanSummary& summary, double ns_per_tick,
                 const char* src, Report& report) {
  const auto& d = summary.durations;
  auto of = [&](SpanKind kind) -> const std::vector<double>& {
    return d[static_cast<int>(kind)];
  };
  const double us = ns_per_tick / 1000;
  AddMean(report, "kernelsim.op_ns", of(SpanKind::kKernelsimOp), ns_per_tick, "ns", src);
  AddMean(report, "kernelsim.self_ns", summary.kernelsim_self, ns_per_tick, "ns", src);
  AddMean(report, "sync.lock_ns", of(SpanKind::kLock), ns_per_tick, "ns", src);
  AddMean(report, "sync.unlock_ns", of(SpanKind::kUnlock), ns_per_tick, "ns", src);
  AddTail(report, "sync.lock_p99_ns", of(SpanKind::kLock), ns_per_tick, "ns", src);
  AddMean(report, "sync.read_lock_ns", of(SpanKind::kReadLock), ns_per_tick, "ns", src);
  AddMean(report, "sync.write_lock_ns", of(SpanKind::kWriteLock), ns_per_tick, "ns", src);
  AddTail(report, "sync.write_lock_p99_ns", of(SpanKind::kWriteLock), ns_per_tick,
          "ns", src);
  AddTail(report, "concord.attach_p99_us", of(SpanKind::kAttach), us, "us", src);
  AddMean(report, "concord.snapshot_us", of(SpanKind::kSnapshot), us, "us", src);
  AddMean(report, "rcu.synchronize_us", of(SpanKind::kSynchronize), us, "us", src);
  AddMean(report, "bpf.verify_us", of(SpanKind::kVerify), us, "us", src);
  AddMean(report, "bpf.jit_compile_us", of(SpanKind::kJitCompile), us, "us", src);
}

ShflCounters::ShflCounters(const concord::ShflLock& lock)
    : acquisitions(lock.acquisitions()),
      shuffle_rounds(lock.shuffle_rounds()),
      shuffle_moves(lock.shuffle_moves()),
      parks(lock.parks()) {}

namespace {

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void ReportShflCounters(const ShflCounters& before, const ShflCounters& after,
                        std::uint64_t ops, const char* source, Report& report) {
  if (report.Has("sync.shuffle_rounds_per_kop")) {
    return;
  }
  const std::uint64_t rounds = after.shuffle_rounds - before.shuffle_rounds;
  const std::uint64_t moves = after.shuffle_moves - before.shuffle_moves;
  const std::uint64_t parks = after.parks - before.parks;
  const std::string per_ops = "per 1000 of " + std::to_string(ops) + " ops, " + source;
  report.Add("sync.shuffle_rounds_per_kop", 1000 * Ratio(rounds, ops), "1/kop", ops,
             std::to_string(rounds) + " rounds " + per_ops);
  report.Add("sync.shuffle_moves_per_round", Ratio(moves, rounds), "moves/round",
             rounds,
             std::to_string(moves) + " waiters moved in " + std::to_string(rounds) +
                 " rounds, " + source);
  report.Add("sync.parks_per_kop", 1000 * Ratio(parks, ops), "1/kop", ops,
             std::to_string(parks) + " parks " + per_ops);
}

void ReportContention(std::uint64_t acquisitions, std::uint64_t contentions,
                      const char* source, Report& report) {
  if (report.Has("concord.contended_share")) {
    return;
  }
  report.Add("concord.contended_share", Ratio(contentions, acquisitions), "fraction",
             acquisitions,
             std::to_string(contentions) + " contended of " +
                 std::to_string(acquisitions) + " profiled acquisitions, " + source);
}

void ReportPeakRss(Report& report) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB", 1,
             "ru_maxrss after the workload, before the checks");
}

void WriteSpanFile(const Options& options, const Window& window,
                   const std::vector<const SpanBuffer*>& buffers,
                   Report& report) {
  mkdir(options.out_dir.c_str(), 0755);
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".tsv";
  const bool ok = WriteSpans(path, buffers, window.start_ticks(),
                             window.scale().ns_per_tick());
  report.Info("span_file", ok ? path : "(write failed: " + path + ")");
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  for (const SpanBuffer* buffer : buffers) {
    recorded += buffer->spans().size();
    dropped += buffer->dropped();
  }
  report.InfoRaw("spans_recorded", std::to_string(recorded));
  report.InfoRaw("spans_dropped", std::to_string(dropped));
}

}  // namespace perfbench
