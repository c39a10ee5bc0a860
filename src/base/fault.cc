#include "src/base/fault.h"

#if CONCORD_FAULT_INJECTION

#include <cstdio>
#include <cstdlib>

namespace concord {
namespace {

thread_local std::uint64_t tls_fires = 0;

// Every fault site compiled into the binary. Keep in sync with the header
// comment and the CONCORD_FAULT_POINT / CONCORD_FAULT_DELAY_NS call sites —
// this table is what operators discover through ListPoints() instead of
// grepping the source.
constexpr struct {
  const char* name;
  const char* description;
} kKnownPoints[] = {
    {"bpf.map_lookup", "map_lookup_elem helper returns null"},
    {"bpf.helper", "map_update/map_delete helpers return -1"},
    {"jit.compile", "Jit::Compile fails; program falls back to interpreter"},
    {"park.delayed_wake", "UnparkOne delayed by @delay_ns"},
    {"autotune.decide", "autotune controller skips the lock's decision step"},
    {"rpc.accept", "accepted control-plane connection dropped immediately"},
    {"rpc.read", "control-plane request read fails mid-connection"},
    {"rpc.write", "control-plane response write fails (client vanishes)"},
    {"rpc.handler", "RPC verb handler aborts with an internal error"},
    {"agent.shm_map", "fleet agent fails to (re)map a worker's shm segment"},
    {"agent.merge", "fleet agent skips the merged decision step for the tick"},
};

// SplitMix64 — tiny, seedable, and good enough to spread 1/n firing evenly.
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

FaultRegistry::FaultRegistry() { LoadFromEnv(); }

void FaultRegistry::LoadFromEnv() {
  const char* env = std::getenv("CONCORD_FAULTS");
  if (env == nullptr || env[0] == '\0') {
    return;
  }
  if (std::string(env) == "list") {
    std::fprintf(stderr, "CONCORD_FAULTS: known fault points:\n");
    for (const auto& point : kKnownPoints) {
      std::fprintf(stderr, "  %-18s %s\n", point.name, point.description);
    }
    return;
  }
  std::string directives(env);
  std::size_t start = 0;
  while (start <= directives.size()) {
    std::size_t end = directives.find(';', start);
    if (end == std::string::npos) {
      end = directives.size();
    }
    const std::string directive = directives.substr(start, end - start);
    if (!directive.empty() && !ArmFromDirective(directive)) {
      std::fprintf(stderr, "CONCORD_FAULTS: ignoring malformed directive '%s'\n",
                   directive.c_str());
    }
    start = end + 1;
  }
}

void FaultRegistry::Arm(const std::string& point, Spec spec) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& existing : points_) {
    if (existing->name == point) {
      existing->spec = spec;
      existing->evaluations = 0;
      existing->fires = 0;
      return;
    }
  }
  auto fresh = std::make_unique<Point>();
  fresh->name = point;
  fresh->spec = spec;
  points_.push_back(std::move(fresh));
  armed_.fetch_add(1, std::memory_order_release);
}

bool FaultRegistry::ArmFromDirective(const std::string& directive) {
  const std::size_t eq = directive.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= directive.size()) {
    return false;
  }
  const std::string point = directive.substr(0, eq);
  std::string modespec = directive.substr(eq + 1);

  Spec spec;
  const std::size_t at = modespec.find('@');
  if (at != std::string::npos) {
    const std::string delay = modespec.substr(at + 1);
    if (delay.empty() || delay.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    spec.delay_ns = std::strtoull(delay.c_str(), nullptr, 10);
    modespec = modespec.substr(0, at);
  }

  auto parse_u64 = [](const std::string& s, std::uint64_t* out) {
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    *out = std::strtoull(s.c_str(), nullptr, 10);
    return true;
  };

  if (modespec == "always") {
    spec.mode = Mode::kAlways;
  } else if (modespec.rfind("1in", 0) == 0) {
    spec.mode = Mode::kOneIn;
    std::string rest = modespec.substr(3);
    const std::size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      if (!parse_u64(rest.substr(colon + 1), &spec.seed)) {
        return false;
      }
      rest = rest.substr(0, colon);
    }
    if (!parse_u64(rest, &spec.n) || spec.n == 0) {
      return false;
    }
  } else if (modespec.rfind("nth", 0) == 0) {
    spec.mode = Mode::kNth;
    if (!parse_u64(modespec.substr(3), &spec.n) || spec.n == 0) {
      return false;
    }
  } else if (modespec.rfind("first", 0) == 0) {
    spec.mode = Mode::kFirstN;
    if (!parse_u64(modespec.substr(5), &spec.n)) {
      return false;
    }
  } else {
    return false;
  }

  Arm(point, spec);
  return true;
}

void FaultRegistry::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto it = points_.begin(); it != points_.end(); ++it) {
    if ((*it)->name == point) {
      points_.erase(it);
      armed_.fetch_sub(1, std::memory_order_release);
      return;
    }
  }
}

void FaultRegistry::DisarmAll() {
  std::lock_guard<std::mutex> guard(mu_);
  armed_.fetch_sub(static_cast<int>(points_.size()), std::memory_order_release);
  points_.clear();
}

FaultRegistry::Point* FaultRegistry::FindLocked(const char* point) {
  for (auto& candidate : points_) {
    if (candidate->name == point) {
      return candidate.get();
    }
  }
  return nullptr;
}

bool FaultRegistry::ShouldFire(const char* point) {
  if (armed_.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  std::lock_guard<std::mutex> guard(mu_);
  Point* p = FindLocked(point);
  if (p == nullptr) {
    return false;
  }
  const std::uint64_t eval = p->evaluations++;
  bool fire = false;
  switch (p->spec.mode) {
    case Mode::kAlways:
      fire = true;
      break;
    case Mode::kOneIn:
      fire = SplitMix64(p->spec.seed ^ (eval * 0x2545f4914f6cdd1dull)) %
                 p->spec.n ==
             0;
      break;
    case Mode::kNth:
      fire = (eval + 1) == p->spec.n;
      break;
    case Mode::kFirstN:
      fire = eval < p->spec.n;
      break;
  }
  if (fire) {
    ++p->fires;
    ++tls_fires;
  }
  return fire;
}

std::uint64_t FaultRegistry::FireDelayNs(const char* point) {
  if (armed_.load(std::memory_order_relaxed) == 0) {
    return 0;
  }
  std::uint64_t delay = 0;
  {
    std::lock_guard<std::mutex> guard(mu_);
    Point* p = FindLocked(point);
    if (p != nullptr) {
      delay = p->spec.delay_ns;
    }
  }
  if (delay == 0) {
    return 0;
  }
  return ShouldFire(point) ? delay : 0;
}

std::uint64_t FaultRegistry::Evaluations(const std::string& point) const {
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& candidate : points_) {
    if (candidate->name == point) {
      return candidate->evaluations;
    }
  }
  return 0;
}

std::uint64_t FaultRegistry::Fires(const std::string& point) const {
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& candidate : points_) {
    if (candidate->name == point) {
      return candidate->fires;
    }
  }
  return 0;
}

namespace {

std::string RenderSpec(const FaultRegistry::Spec& spec) {
  std::string out;
  switch (spec.mode) {
    case FaultRegistry::Mode::kAlways:
      out = "always";
      break;
    case FaultRegistry::Mode::kOneIn:
      out = "1in" + std::to_string(spec.n);
      if (spec.seed != 0) {
        out += ":" + std::to_string(spec.seed);
      }
      break;
    case FaultRegistry::Mode::kNth:
      out = "nth" + std::to_string(spec.n);
      break;
    case FaultRegistry::Mode::kFirstN:
      out = "first" + std::to_string(spec.n);
      break;
  }
  if (spec.delay_ns != 0) {
    out += "@" + std::to_string(spec.delay_ns);
  }
  return out;
}

}  // namespace

std::vector<FaultRegistry::PointInfo> FaultRegistry::ListPoints() const {
  std::vector<PointInfo> out;
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& known : kKnownPoints) {
    PointInfo info;
    info.name = known.name;
    info.description = known.description;
    out.push_back(std::move(info));
  }
  for (const auto& armed : points_) {
    PointInfo* row = nullptr;
    for (PointInfo& existing : out) {
      if (existing.name == armed->name) {
        row = &existing;
        break;
      }
    }
    if (row == nullptr) {
      out.emplace_back();
      row = &out.back();
      row->name = armed->name;
    }
    row->armed = true;
    row->directive = RenderSpec(armed->spec);
    row->evaluations = armed->evaluations;
    row->fires = armed->fires;
  }
  return out;
}

std::uint64_t FaultRegistry::ThreadFires() { return tls_fires; }

}  // namespace concord

#endif  // CONCORD_FAULT_INJECTION
