#include "src/base/histogram.h"

#include <cinttypes>
#include <cstdio>

#include "src/base/json.h"

namespace concord {

std::uint64_t Log2Histogram::TotalCount() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) {
    total += b.load(std::memory_order_relaxed);
  }
  return total;
}

double Log2Histogram::Mean() const {
  const std::uint64_t n = TotalCount();
  return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
}

std::uint64_t Log2Histogram::Percentile(double p) const {
  const std::uint64_t total = TotalCount();
  if (total == 0) {
    return 0;
  }
  if (p < 0) {
    p = 0;
  }
  if (p > 100) {
    p = 100;
  }
  const auto target =
      static_cast<std::uint64_t>(static_cast<double>(total) * p / 100.0);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > target) {
      return BucketLowerBound(i);
    }
  }
  return Max();
}

void Log2Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Log2Histogram Log2Histogram::DeltaSince(const Log2Histogram& earlier) const {
  Log2Histogram delta;
  std::uint64_t sum_now = 0;
  std::uint64_t sum_then = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t now = buckets_[i].load(std::memory_order_relaxed);
    const std::uint64_t then = earlier.buckets_[i].load(std::memory_order_relaxed);
    delta.buckets_[i].store(now > then ? now - then : 0,
                            std::memory_order_relaxed);
  }
  sum_now = sum_.load(std::memory_order_relaxed);
  sum_then = earlier.sum_.load(std::memory_order_relaxed);
  delta.sum_.store(sum_now > sum_then ? sum_now - sum_then : 0,
                   std::memory_order_relaxed);
  delta.max_.store(max_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  return delta;
}

void Log2Histogram::MergeFrom(const Log2Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i].fetch_add(other.buckets_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  std::uint64_t other_max = other.max_.load(std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (other_max > prev &&
         !max_.compare_exchange_weak(prev, other_max, std::memory_order_relaxed)) {
  }
}

std::string Log2Histogram::ToString() const {
  std::string out;
  char line[128];
  const std::uint64_t total = TotalCount();
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t count = buckets_[i].load(std::memory_order_relaxed);
    if (count == 0) {
      continue;
    }
    const std::uint64_t lo = BucketLowerBound(i);
    const double pct =
        total == 0 ? 0.0 : 100.0 * static_cast<double>(count) / static_cast<double>(total);
    if (i == kBuckets - 1) {
      // 2^64 does not fit in a u64; the top bucket's upper bound is open.
      std::snprintf(line, sizeof(line),
                    "[%12" PRIu64 ", %12s) %10" PRIu64 "  %5.1f%%\n", lo, "inf",
                    count, pct);
    } else {
      std::snprintf(line, sizeof(line),
                    "[%12" PRIu64 ", %12" PRIu64 ") %10" PRIu64 "  %5.1f%%\n",
                    lo, static_cast<std::uint64_t>(1ull << (i + 1)), count, pct);
    }
    out += line;
  }
  return out;
}

void Log2Histogram::AppendJson(JsonWriter& writer) const {
  writer.BeginObject();
  writer.NumberField("count", TotalCount());
  writer.NumberField("sum", Sum());
  writer.NumberField("mean", Mean());
  writer.NumberField("max", Max());
  writer.NumberField("p50", Percentile(50));
  writer.NumberField("p90", Percentile(90));
  writer.NumberField("p99", Percentile(99));
  writer.Key("buckets").BeginArray();
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t count = buckets_[i].load(std::memory_order_relaxed);
    if (count == 0) {
      continue;
    }
    writer.BeginObject();
    writer.NumberField("lo", BucketLowerBound(i));
    writer.NumberField("count", count);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
}

}  // namespace concord
