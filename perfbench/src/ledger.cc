#include "src/ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t purpose) {
  SplitMix mix(seed ^ (purpose * 0xd1b54a32d192ed03ull));
  mix.Next();
  return mix.Next();
}

std::size_t SamplesBeyond(std::size_t n, double percentile) {
  if (n == 0) {
    return 0;
  }
  // Nearest rank: the value at 1-based rank ceil(p/100 * n).
  const auto rank = static_cast<std::size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::max<std::size_t>(rank, 1);
}

Percentile ReportPercentile(std::vector<double>& samples, double wanted) {
  static constexpr double kLadder[] = {99.9, 99, 90, 50};
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  out.percentile = 50;
  for (double p : kLadder) {
    if (p <= wanted && SamplesBeyond(samples.size(), p) >= 10) {
      out.percentile = p;
      break;
    }
  }
  const std::size_t beyond = SamplesBeyond(samples.size(), out.percentile);
  out.value = samples[samples.size() - beyond - 1];
  return out;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0;
  }
  double sum = 0;
  for (double s : samples) {
    sum += s;
  }
  return sum / static_cast<double>(samples.size());
}

std::uint64_t SelfTime(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.start) {
    return 0;
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::uint64_t covered = 0;
  std::uint64_t cursor = parent.start;  // end of the union so far
  for (const Interval& child : children) {
    const std::uint64_t start = std::max(child.start, cursor);
    const std::uint64_t end = std::min(child.end, parent.end);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return (parent.end - parent.start) - covered;
}

// --- Report ------------------------------------------------------------------

void Report::Add(std::string name, double value, std::string unit,
                 std::uint64_t samples, std::string basis) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), samples, std::move(basis)});
}

void Report::AddPercentile(const std::string& name, std::vector<double>& samples,
                           double wanted, const std::string& unit, double scale,
                           const std::string& source) {
  if (samples.empty()) {
    return;
  }
  const Percentile p = ReportPercentile(samples, wanted);
  char basis[160];
  std::snprintf(basis, sizeof(basis), "p%g of %zu samples%s, %s", p.percentile,
                p.samples, p.percentile < wanted ? " (too few for the tail)" : "",
                source.c_str());
  Add(name, p.value * scale, unit, p.samples, basis);
}

bool Report::Has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Report::Check(std::string name, bool ok, std::string detail) {
  checks_.push_back({std::move(name), ok, std::move(detail)});
}

void Report::Info(std::string key, std::string value) {
  info_.emplace_back(std::move(key), JsonString(value));
}

void Report::InfoRaw(std::string key, std::string json) {
  info_.emplace_back(std::move(key), std::move(json));
}

std::uint64_t Report::failed() const {
  std::uint64_t failed = failed_calls;
  for (const CheckResult& check : checks_) {
    failed += check.ok ? 0 : 1;
  }
  return failed;
}

std::string Report::Json() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed_calls\":" + std::to_string(failed_calls) +
                    ",\"failed\":" + std::to_string(failed()) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) {
      out += ',';
    }
    out += JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) +
           ",\"basis\":" + JsonString(m.basis) + "}";
  }
  out += "},\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const CheckResult& c = checks_[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"name\":" + JsonString(c.name) +
           ",\"ok\":" + (c.ok ? "true" : "false") +
           ",\"detail\":" + JsonString(c.detail) + "}";
  }
  out += "],\"info\":{";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += JsonString(info_[i].first) + ":" + info_[i].second;
  }
  return out + "}}";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
