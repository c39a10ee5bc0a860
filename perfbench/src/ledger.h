// The benchmark's arithmetic and its result record: seeded generators, input
// digests, the percentile reporting rule, span self time, and the Report
// every workload fills and main() prints.

#ifndef PERFBENCH_SRC_LEDGER_H_
#define PERFBENCH_SRC_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// SplitMix64: the generator behind every benchmark input. Owned here rather
// than taken from the library so that inputs stay fixed across library
// changes.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound) by multiply-shift.
  std::uint64_t Below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

 private:
  std::uint64_t state_;
};

// Derives an independent stream seed for one purpose of one run.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t purpose);

// Order-sensitive digest of 64-bit words (FNV-1a style, a word per step so
// that folding every op's result stays cheap): digests of generated inputs
// and of op results.
class Digest {
 public:
  void Add(std::uint64_t word) {
    hash_ = (hash_ ^ word) * 0x100000001b3ull;
    hash_ ^= hash_ >> 29;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// --- percentiles -------------------------------------------------------------

// Samples strictly beyond the nearest-rank `percentile` of `n` samples.
std::size_t SamplesBeyond(std::size_t n, double percentile);

// A percentile as reported: which one, its value and the sample count.
struct Percentile {
  double percentile = 0;
  double value = 0;
  std::size_t samples = 0;
};

// Reports `wanted` (50, 90, 99 or 99.9) only when at least 10 samples lie
// beyond it; otherwise the next lower one of those that has, down to p50.
// Sorts `samples` in place. An empty input yields samples == 0.
Percentile ReportPercentile(std::vector<double>& samples, double wanted);

double Mean(const std::vector<double>& samples);

// --- spans -------------------------------------------------------------------

struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

// A span's self time: its duration minus the part of it that the union of
// its children's intervals covers.
std::uint64_t SelfTime(Interval parent, std::vector<Interval> children);

// --- result record -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  // sample or op count behind the value
  std::string basis;          // how it was measured, for the printed report
};

struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::uint64_t samples, std::string basis);
  // Adds the reportable percentile (see ReportPercentile) of `samples` times
  // `scale`; nothing when there are no samples.
  void AddPercentile(const std::string& name, std::vector<double>& samples,
                     double wanted, const std::string& unit, double scale,
                     const std::string& source);
  bool Has(const std::string& name) const;

  // Records a correctness check; a failed one counts into error_rate.
  void Check(std::string name, bool ok, std::string detail = "");
  void Info(std::string key, std::string value);
  // Information formatted as JSON already (numbers, objects).
  void InfoRaw(std::string key, std::string json);

  std::uint64_t attempted = 0;     // application ops attempted
  std::uint64_t failed_calls = 0;  // ops whose return value was wrong

  std::uint64_t failed() const;
  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<CheckResult> checks_;
  std::vector<std::pair<std::string, std::string>> info_;  // key, JSON value
};

std::string JsonString(const std::string& text);
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LEDGER_H_
