// Canary engine — the per-lock decision procedure both tuning planes run
// (docs/AUTOTUNE.md): the in-process controller (controller.h) on profiler
// snapshot deltas, and the fleet agent (src/concord/agent/fleet.h) on
// windows merged across worker processes.
//
// Once per window, per lock, the engine
//
//   classifies a qualifying observation window (RegimeSignals, debounced by
//              RegimeHysteresis) and keeps its wait p50/p99 as the baseline
//   decays     the skip list and the cooldown
//   acts       when the stable regime wants another candidate: reverts an
//              uncontended lock to plain directly, or attaches the candidate
//              (plain too, under contention) as a canary, scores the next
//              canary_windows qualifying windows against the baseline
//              (CanaryPromotes; for plain, the incumbent must win it) and
//              promotes or rolls back
//
// The planes differ only in where a window comes from (an argument to
// TickLock) and how a candidate reaches the lock (the Plane callbacks). They
// share one config (AutotuneConfig) and one status view (AppendStatusJson).
// The engine holds no lock; its owner serializes every call.

#ifndef SRC_CONCORD_AUTOTUNE_CANARY_H_
#define SRC_CONCORD_AUTOTUNE_CANARY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/json.h"
#include "src/base/status.h"
#include "src/concord/autotune/candidates.h"
#include "src/concord/autotune/regime.h"
#include "src/concord/profiler.h"

namespace concord {

struct CanaryConfig {
  // Consecutive agreeing windows before the stable regime flips.
  std::uint32_t hysteresis_windows = 2;

  // Scoring windows a canary must accumulate before the promote/rollback
  // verdict. Windows with fewer than min_window_acquisitions samples neither
  // classify nor score; a canary that can't collect its windows within
  // canary_windows * kCanaryPatience total windows is aborted (rolled back).
  std::uint32_t canary_windows = 3;
  std::uint64_t min_window_acquisitions = 64;

  // Promote iff canary p99 improves by this fraction, or p99 holds and p50
  // improves by it.
  double promote_margin = 0.05;

  // Windows after a promote/rollback during which no new canary starts.
  std::uint32_t cooldown_windows = 5;

  // Windows a rolled-back candidate stays on the lock's skip list.
  std::uint32_t failed_candidate_backoff_windows = 20;

  ClassifierConfig classifier;
};

// What both tuning planes are configured with: the in-process controller
// takes it as is, and the fleet agent's FleetAgentConfig extends it.
struct AutotuneConfig {
  // Sampling window; the control loop ticks the plane once per window.
  std::uint64_t window_ns = 100'000'000;  // 100ms

  CanaryConfig canary;

  // Load .casm candidates from this directory ("" = none) through
  // PolicyCandidateRegistry::SeedFromPolicyDir.
  std::string policy_dir;
};

enum class AutotuneEventKind : std::uint8_t {
  kRegimeChange,    // stable regime flipped
  kCanaryStart,     // candidate attached for scoring
  kPromote,         // canary won (or the lock reverted to plain)
  kRollback,        // canary lost (or containment fired); incumbent restored
  kCanaryAbort,     // canary never collected enough samples; rolled back
  kQuarantineExit,  // promoted policy quarantined by containment; detached
  kError,           // attach/detach failed; details in `detail`
  kWorkerJoin,      // fleet: a worker registered
  kWorkerEvict,     // fleet: a dead, stale or corrupt worker was dropped
};

const char* AutotuneEventKindName(AutotuneEventKind kind);

struct AutotuneEvent {
  std::uint64_t ts_ns = 0;
  std::uint64_t lock_id = 0;  // 0 on the fleet plane, which keys locks by name
  std::string lock_name;      // "" for worker events
  AutotuneEventKind kind = AutotuneEventKind::kRegimeChange;
  ContentionRegime regime = ContentionRegime::kUncontended;
  std::string candidate;  // policy involved ("" when n/a)
  std::string detail;
  std::uint64_t worker_pid = 0;  // fleet worker events; 0 otherwise
};

// The promote/rollback verdict: promote iff the canary's p99 wait improves
// on the baseline by `margin`, or p99 holds and p50 improves by `margin`.
struct CanaryScore {
  std::uint64_t baseline_p50_ns = 0;
  std::uint64_t baseline_p99_ns = 0;
  std::uint64_t canary_p50_ns = 0;
  std::uint64_t canary_p99_ns = 0;
};

bool CanaryPromotes(const CanaryScore& score, double margin);

// "p50 A->Bns, p99 C->Dns" — the detail string of promote/rollback events.
std::string CanaryScoreDetail(const CanaryScore& score);

class CanaryEngine {
 public:
  // A canary that cannot fill canary_windows scored windows within
  // canary_windows * kCanaryPatience total windows is aborted.
  static constexpr std::uint32_t kCanaryPatience = 8;

  enum class Mode : std::uint8_t { kObserving, kCanary };

  struct SkipEntry {
    std::string name;
    std::uint32_t windows_left = 0;
  };

  // One managed lock.
  struct Lock {
    std::uint64_t lock_id = 0;
    std::string name;
    bool is_rw = false;

    RegimeHysteresis hysteresis;

    // What the plane believes is attached ("plain" = no policy).
    std::string incumbent = kPlainCandidateName;

    Mode mode = Mode::kObserving;
    std::uint32_t cooldown = 0;

    // Baseline from the most recent qualifying observation window.
    bool have_baseline = false;
    std::uint64_t baseline_p50_ns = 0;
    std::uint64_t baseline_p99_ns = 0;

    // Canary bookkeeping (mode == kCanary).
    std::string canary_candidate;
    Log2Histogram canary_wait;
    std::uint32_t canary_scored = 0;
    std::uint32_t canary_total = 0;

    std::vector<SkipEntry> skip;
  };

  // What differs between the planes.
  struct Plane {
    // The candidate a lock in `regime` should run, passing over `skip`;
    // kPlainCandidateName when nothing fits.
    std::function<std::string(const Lock& lock, ContentionRegime regime,
                              const std::vector<std::string>& skip)>
        choose;
    // Puts candidate `name` on the lock ("plain" = detach). Events the
    // actuator raises itself (a fleet eviction) go to `events`.
    std::function<Status(const Lock& lock, const std::string& name,
                         std::uint64_t now_ns,
                         std::vector<AutotuneEvent>& events)>
        apply;
  };

  explicit CanaryEngine(Plane plane) : plane_(std::move(plane)) {}

  void set_config(const CanaryConfig& config) { config_ = config; }
  const CanaryConfig& config() const { return config_; }

  // One window of one lock: classify, decay, act.
  void TickLock(Lock& lock, const LockProfileSnapshot& window,
                std::uint64_t now_ns, std::vector<AutotuneEvent>& events);

  // Ends the lock's canary. A rollback restores the incumbent; if that
  // fails, it emits `error` and falls back to plain.
  void FinishCanary(Lock& lock, bool promote, AutotuneEventKind kind,
                    const std::string& detail, std::uint64_t now_ns,
                    std::vector<AutotuneEvent>& events);

  // Puts `name` (plain too) on the lock's skip list for
  // failed_candidate_backoff_windows.
  void AddSkip(Lock& lock, const std::string& name) const;

  // Records an event about `lock` in the ring and in `events`.
  void Emit(const Lock& lock, AutotuneEventKind kind,
            const std::string& candidate, const std::string& detail,
            std::uint64_t now_ns, std::vector<AutotuneEvent>& events);
  void Emit(AutotuneEvent event, std::vector<AutotuneEvent>& events);

  // The bounded event ring, oldest first.
  const std::deque<AutotuneEvent>& events() const { return events_; }
  std::vector<AutotuneEvent> RecentEvents(std::size_t max) const;
  void ClearEvents() { events_.clear(); }

  // The status keys both planes share (docs/AUTOTUNE.md §Status): the
  // plane's candidates as "candidates" (Names(), "plain" first), `locks` as
  // "locks" and the event ring, oldest first, as "events". Every lock and
  // every event renders the same keys on either plane; a field a plane does
  // not use reads 0 or "".
  void AppendStatusJson(JsonWriter& json,
                        const PolicyCandidateRegistry& registry,
                        const std::vector<const Lock*>& locks) const;

 private:
  static constexpr std::size_t kMaxEvents = 256;

  void StartCanary(Lock& lock, const std::string& candidate,
                   std::uint64_t now_ns, std::vector<AutotuneEvent>& events);
  // Detaches the lock's policy; a failure emits `error` and returns false.
  bool RevertToPlain(Lock& lock, std::uint64_t now_ns,
                     std::vector<AutotuneEvent>& events);

  Plane plane_;
  CanaryConfig config_;
  std::deque<AutotuneEvent> events_;
};

}  // namespace concord

#endif  // SRC_CONCORD_AUTOTUNE_CANARY_H_
