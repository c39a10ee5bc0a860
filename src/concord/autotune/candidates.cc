#include "src/concord/autotune/candidates.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/base/check.h"
#include "src/concord/hooks.h"
#include "src/concord/policies.h"
#include "src/concord/policy_source.h"

namespace concord {
namespace {

PolicyCandidate PlainCandidate(ContentionRegime regime) {
  PolicyCandidate plain;
  plain.name = kPlainCandidateName;
  plain.regime = regime;
  plain.make = nullptr;
  return plain;
}

// Conservative: only patterns with an obvious regime mapping load;
// everything else is skipped rather than guessed wrong.
bool RegimeFromPolicyFilename(const std::string& stem, ContentionRegime* out) {
  if (stem.find("numa") != std::string::npos) {
    *out = ContentionRegime::kNumaSkewed;
    return true;
  }
  if (stem.find("backoff") != std::string::npos) {
    *out = ContentionRegime::kPathological;
    return true;
  }
  if (stem.find("batch") != std::string::npos) {
    *out = ContentionRegime::kModerate;
    return true;
  }
  return false;
}

}  // namespace

Status PolicyCandidateRegistry::Register(PolicyCandidate candidate) {
  if (candidate.name.empty() || candidate.name == kPlainCandidateName) {
    return InvalidArgumentError("candidate name '" + candidate.name +
                                "' is reserved");
  }
  std::lock_guard<std::mutex> guard(mu_);
  for (PolicyCandidate& existing : candidates_) {
    if (existing.name == candidate.name) {
      existing = std::move(candidate);
      return Status::Ok();
    }
  }
  candidates_.push_back(std::move(candidate));
  return Status::Ok();
}

void PolicyCandidateRegistry::SeedBuiltins() {
  PolicyCandidate numa;
  numa.name = "numa_grouping";
  numa.regime = ContentionRegime::kNumaSkewed;
  numa.make = []() -> StatusOr<PolicySpec> {
    auto policy = MakeNumaGroupingPolicy();
    CONCORD_RETURN_IF_ERROR(policy.status());
    return std::move(policy->spec);
  };
  CONCORD_CHECK(Register(std::move(numa)).ok());

  PolicyCandidate guard;
  guard.name = "shuffle_fairness_guard";
  guard.regime = ContentionRegime::kPathological;
  guard.make = []() -> StatusOr<PolicySpec> {
    auto policy = MakeShuffleFairnessGuard();
    CONCORD_RETURN_IF_ERROR(policy.status());
    return std::move(policy->spec);
  };
  CONCORD_CHECK(Register(std::move(guard)).ok());

  PolicyCandidate reader_bias;
  reader_bias.name = "rw_reader_bias";
  reader_bias.regime = ContentionRegime::kReaderHeavy;
  reader_bias.for_rw = true;
  reader_bias.make = []() -> StatusOr<PolicySpec> {
    auto policy = MakeRwSwitchPolicy(RwMode::kReaderBias);
    CONCORD_RETURN_IF_ERROR(policy.status());
    policy->spec.name = "rw_reader_bias";
    return std::move(policy->spec);
  };
  CONCORD_CHECK(Register(std::move(reader_bias)).ok());
}

Status PolicyCandidateRegistry::RegisterSource(const std::string& name,
                                               ContentionRegime regime,
                                               const std::string& source) {
  StatusOr<PolicySpec> spec = LoadPolicy(name, source);
  CONCORD_RETURN_IF_ERROR(spec.status());
  PolicyCandidate candidate;
  candidate.name = name;
  candidate.regime = regime;
  candidate.for_rw = !spec->ChainFor(HookKind::kRwMode).empty();
  candidate.source = source;
  candidate.make = [name, source] { return LoadPolicy(name, source); };
  return Register(std::move(candidate));
}

int PolicyCandidateRegistry::SeedFromPolicyDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return 0;
  }
  int admitted = 0;
  for (const auto& entry : it) {
    const std::string stem = entry.path().stem().string();
    ContentionRegime regime = ContentionRegime::kModerate;
    if (!entry.is_regular_file() || entry.path().extension() != ".casm" ||
        !RegimeFromPolicyFilename(stem, &regime)) {
      continue;
    }
    std::ifstream file(entry.path());
    std::stringstream buffer;
    buffer << file.rdbuf();
    if (file && RegisterSource(stem, regime, buffer.str()).ok()) {
      ++admitted;
    }
  }
  return admitted;
}

PolicyCandidate PolicyCandidateRegistry::CandidateFor(
    ContentionRegime regime, bool is_rw,
    const std::vector<std::string>& skip) const {
  std::lock_guard<std::mutex> guard(mu_);
  for (const PolicyCandidate& candidate : candidates_) {
    if (candidate.regime != regime || candidate.for_rw != is_rw) {
      continue;
    }
    bool skipped = false;
    for (const std::string& name : skip) {
      if (name == candidate.name) {
        skipped = true;
        break;
      }
    }
    if (!skipped) {
      return candidate;
    }
  }
  return PlainCandidate(regime);
}

StatusOr<PolicyCandidate> PolicyCandidateRegistry::FindByName(
    const std::string& name) const {
  if (name == kPlainCandidateName) {
    return PlainCandidate(ContentionRegime::kModerate);
  }
  std::lock_guard<std::mutex> guard(mu_);
  for (const PolicyCandidate& candidate : candidates_) {
    if (candidate.name == name) {
      return candidate;
    }
  }
  return NotFoundError("no candidate named '" + name + "'");
}

std::vector<std::string> PolicyCandidateRegistry::Names() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<std::string> names;
  names.reserve(candidates_.size() + 1);
  names.push_back(kPlainCandidateName);
  for (const PolicyCandidate& candidate : candidates_) {
    names.push_back(candidate.name);
  }
  return names;
}

bool PolicyCandidateRegistry::Empty() const {
  std::lock_guard<std::mutex> guard(mu_);
  return candidates_.empty();
}

void PolicyCandidateRegistry::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  candidates_.clear();
}

}  // namespace concord
