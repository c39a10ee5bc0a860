// Candidate policy registry — the "act" vocabulary of the autotune control
// plane: which verified policy should a lock in a given contention regime
// try next?
//
// Candidates are *factories*, not specs: every canary attach assembles (and
// re-verifies, at Concord::Attach) a fresh PolicySpec, so a candidate can be
// attached, rolled back and re-attached without spec-copying hazards. A
// candidate is either built in, wired to a ready-made policy in
// src/concord/policies.h, or a text candidate: .casm source admitted through
// LoadPolicy (src/concord/policy_source.h), which the registry keeps so the
// fleet agent (src/concord/agent/fleet.h) can push it to other processes.
// Both tuning planes own one registry each; only the in-process controller
// seeds the built-ins, which have no source to push.
//
// The implicit "plain" candidate — detach, reverting the lock to stock
// behaviour — is always available and is the fallback whenever no registered
// candidate fits a (regime, lock kind) pair.

#ifndef SRC_CONCORD_AUTOTUNE_CANDIDATES_H_
#define SRC_CONCORD_AUTOTUNE_CANDIDATES_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/concord/autotune/regime.h"
#include "src/concord/policy.h"

namespace concord {

struct PolicyCandidate {
  std::string name;
  ContentionRegime regime = ContentionRegime::kModerate;
  // rw_mode policies attach only to rw locks; queue policies (cmp_node,
  // skip_shuffle, schedule_waiter) only to ShflLocks.
  bool for_rw = false;
  // The .casm text of a text candidate; empty for a built-in.
  std::string source;
  // Null for the "plain" candidate (detach instead of attach).
  std::function<StatusOr<PolicySpec>()> make;

  bool IsPlain() const { return make == nullptr; }
};

// The canonical name of the detach candidate.
inline constexpr char kPlainCandidateName[] = "plain";

class PolicyCandidateRegistry {
 public:
  PolicyCandidateRegistry() = default;

  // Registers `candidate`, replacing any existing candidate with the same
  // name. The name "plain" is reserved.
  Status Register(PolicyCandidate candidate);

  // Ready-made policies from src/concord/policies.h:
  //   numa-skewed  -> numa_grouping            (cmp_node socket grouping)
  //   pathological -> shuffle_fairness_guard   (bounds shuffler reordering)
  //   reader-heavy -> rw_reader_bias           (rw_mode = BRAVO reader bias)
  // Uncontended and moderate keep the implicit "plain" candidate.
  void SeedBuiltins();

  // Registers text candidate `name` for `regime` once LoadPolicy admits
  // `source`, so an inadmissible file never becomes a candidate a plane
  // would fail to attach on every window. The loaded hook decides for_rw,
  // and each attach loads the source afresh. Returns LoadPolicy's status on
  // rejection, and replaces any candidate with the same name.
  Status RegisterSource(const std::string& name, ContentionRegime regime,
                        const std::string& source);

  // RegisterSource over every `.casm` file directly under `dir` whose
  // filename maps to a regime ("numa" -> numa-skewed, "backoff" ->
  // pathological, "batch" -> moderate); other files are skipped rather than
  // guessed wrong. Returns how many candidates registered.
  int SeedFromPolicyDir(const std::string& dir);

  // Preferred candidate for a lock of the given kind in `regime`; falls back
  // to the plain candidate when nothing registered fits. `skip` names
  // candidates to pass over (recently rolled back). Never returns null.
  PolicyCandidate CandidateFor(ContentionRegime regime, bool is_rw,
                               const std::vector<std::string>& skip = {}) const;

  // Candidate by name; "plain" yields the plain candidate, and an unknown
  // name is kNotFound.
  StatusOr<PolicyCandidate> FindByName(const std::string& name) const;

  // "plain" first, then every registered name in registration order.
  std::vector<std::string> Names() const;
  // True while nothing but the implicit "plain" candidate is available.
  bool Empty() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<PolicyCandidate> candidates_;
};

}  // namespace concord

#endif  // SRC_CONCORD_AUTOTUNE_CANDIDATES_H_
