// Candidate policy registry — the "act" vocabulary of the autotune control
// plane: which verified policy should a lock in a given contention regime
// try next?
//
// Candidates are *factories*, not specs: every canary attach assembles (and
// re-verifies, at Concord::Attach) a fresh PolicySpec, so a candidate can be
// attached, rolled back and re-attached without spec-copying hazards. The
// registry ships built-ins wired to the ready-made policies in
// src/concord/policies.h and can additionally load .casm files from
// examples/policies/ (regime inferred from the filename, hook and budget
// from the policy's directives).
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
  // Null for the "plain" candidate (detach instead of attach).
  std::function<StatusOr<PolicySpec>()> make;

  bool IsPlain() const { return make == nullptr; }
};

// The canonical name of the detach candidate.
inline constexpr char kPlainCandidateName[] = "plain";

// The one walk over a .casm policy directory, shared by SeedFromPolicyDir and
// the fleet agent (src/concord/agent/fleet.h). Calls `admit(stem, regime,
// source)` for every `.casm` file directly under `dir` whose filename maps
// to a regime ("numa" -> numa-skewed, "backoff" -> pathological, "batch" ->
// moderate); other files are skipped rather than guessed wrong. Returns how
// many calls returned OK.
int ForEachPolicyFile(
    const std::string& dir,
    const std::function<Status(const std::string& stem,
                               ContentionRegime regime,
                               const std::string& source)>& admit);

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

  // Registers every file ForEachPolicyFile yields that LoadPolicy
  // (src/concord/policy_source.h) admits; each attach loads the source
  // afresh. Returns how many candidates registered.
  int SeedFromPolicyDir(const std::string& dir);

  // Preferred candidate for a lock of the given kind in `regime`; falls back
  // to the plain candidate when nothing registered fits. `skip` names
  // candidates to pass over (recently rolled back). Never returns null.
  PolicyCandidate CandidateFor(ContentionRegime regime, bool is_rw,
                               const std::vector<std::string>& skip = {}) const;

  // Candidate by name; "plain" yields the plain candidate, and an unknown
  // name is kNotFound.
  StatusOr<PolicyCandidate> FindByName(const std::string& name) const;

  std::vector<std::string> Names() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<PolicyCandidate> candidates_;
};

}  // namespace concord

#endif  // SRC_CONCORD_AUTOTUNE_CANDIDATES_H_
