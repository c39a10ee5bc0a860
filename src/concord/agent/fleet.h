// Fleet agent — the host-level half of the multi-process autotune story
// (ROADMAP "multi-process agent", docs/OPERATIONS.md §multi-process).
//
// One agent per host manages N worker processes. Each worker exports its
// profiler into a shared-memory segment (src/concord/agent/shm_segment.h)
// and serves its own control-plane socket; the agent
//
//   sample   reads every registered worker's segment, diffs it against the
//            previous read per lock *name* (the fleet key — lock ids are
//            per-process), and merges the per-worker deltas into one
//            fleet-wide window per lock name
//   decide   hands each merged window to the same canary engine the
//            in-process controller runs (src/concord/autotune/canary.h),
//            one lock per name, and pushes its choice to every worker
//            through the worker's certifier-gated policy.attach verb
//
// The agent chooses from its own PolicyCandidateRegistry
// (src/concord/autotune/candidates.h), never the controller's: it pushes a
// candidate's .casm source, and only text candidates have one. A chosen
// candidate without source fails its push; the engine reports `error` and
// the fleet stays on its incumbent.
//
// Aggregating across workers is the point: per-process windows are noisy,
// the merged window is what makes a promotion trustworthy — and a promotion
// applies to the whole fleet at once, including workers that join later.
//
// Degradation contract (the tentpole's hard requirement): a dead worker
// (pid gone, socket refusing), a stale segment (publishes stopped), or a
// corrupt/version-mismatched/truncated segment is detected and the worker
// EVICTED — an event is emitted, the remaining fleet keeps converging, and
// the agent never crashes or blocks on the failed worker. Candidates a
// worker already received stay attached on eviction (a policy the certifier
// admitted is safe to leave running; a restarted worker re-registers and
// resyncs).
//
// Failure-injection: `agent.shm_map` fails segment (re)maps; `agent.merge`
// skips the decision phase for a tick AFTER sampling, mirroring
// `autotune.decide` — a wedged agent loses decisions, never consistency.

#ifndef SRC_CONCORD_AGENT_FLEET_H_
#define SRC_CONCORD_AGENT_FLEET_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/concord/agent/shm_segment.h"
#include "src/concord/autotune/canary.h"
#include "src/concord/autotune/candidates.h"

namespace concord {

// The controller's config plus the one knob only the fleet has.
struct FleetAgentConfig : AutotuneConfig {
  // Eviction: a worker is evicted after this many consecutive ticks without
  // readable publish progress (transient read failures and unchanged
  // publish_count both count; permanent segment corruption and a dead pid
  // evict immediately). Progress-based rather than clock-based so an agent
  // under FakeClock still detects real workers stalling.
  std::uint32_t evict_after_stale_ticks = 3;
};

// The agent. One per process (Global()); the RPC verbs agent.register/
// agent.leave/agent.status are thin wrappers over it.
class FleetAgent {
 public:
  static FleetAgent& Global();

  // Applies config and seeds the registry from config.policy_dir; fails
  // while the agent is on the control loop.
  Status Configure(const FleetAgentConfig& config);
  FleetAgentConfig config() const;

  // The fleet's candidates. Register text candidates (RegisterSource): a
  // built-in has no source to push.
  PolicyCandidateRegistry& registry() { return registry_; }

  // --- membership (RPC-driven) ----------------------------------------------

  // Registers (or re-registers) a worker. Replaces any existing entry for
  // `pid`; the segment is mapped lazily on the next tick, and the current
  // incumbent policies are pushed to the worker then (never synchronously
  // from the RPC thread — the worker is mid-Call and pushing back into its
  // socket from here invites a distributed deadlock).
  Status RegisterWorker(std::uint64_t pid, const std::string& shm_path,
                        const std::string& control_socket);
  Status LeaveWorker(std::uint64_t pid);
  std::size_t WorkerCount() const;

  // --- the loop -------------------------------------------------------------

  // One sample+decide pass. Deterministic given manual ticks and
  // deterministic worker feeds; tests call this directly under a
  // ScopedManualControlLoop.
  std::vector<AutotuneEvent> Tick();

  // Joins / leaves the control loop, which then ticks the agent every
  // config().window_ns.
  void Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- introspection --------------------------------------------------------

  // {"running","window_ns","worker_count","workers":[...]} and the keys
  // CanaryEngine::AppendStatusJson renders: "candidates", "locks",
  // "events".
  std::string StatusJson() const;
  std::vector<AutotuneEvent> RecentEvents(std::size_t max = 64) const;

  // Leaves the loop, drops workers/locks/candidates/events/config.
  void ResetForTest();

 private:
  struct Worker {
    std::uint64_t pid = 0;
    std::string shm_path;
    std::string control_socket;
    std::unique_ptr<ShmSegmentReader> reader;

    // Progress tracking for staleness eviction.
    bool have_sample = false;
    std::uint64_t last_publish_count = 0;
    std::uint32_t stale_ticks = 0;

    // Cumulative per-lock snapshots from the previous successful read, keyed
    // by lock name; diffed against the next read.
    std::map<std::string, LockProfileSnapshot> last_by_lock;

    // Policies this worker still needs pushed (set at registration so a
    // late joiner converges onto the fleet's incumbents).
    bool needs_sync = true;
  };

  FleetAgent();

  // Sampling phase. Returns false if the worker must be evicted (reason in
  // *evict_reason).
  bool SampleWorkerLocked(Worker& worker,
                          std::map<std::string, LockProfileSnapshot>& merged,
                          std::string* evict_reason);
  void EvictWorkerPidLocked(std::uint64_t pid, const std::string& reason,
                            std::uint64_t now_ns,
                            std::vector<AutotuneEvent>& events);

  // The engine's actuator: pushes candidate `name` ("plain" = detach) for
  // `lock` to every live worker, evicting workers whose socket fails. If a
  // worker rejects a candidate, the incumbent is pushed back to the workers
  // that took it, so the fleet never splits, and the rejection is returned.
  Status PushToFleetLocked(const CanaryEngine::Lock& lock,
                           const std::string& name, std::uint64_t now_ns,
                           std::vector<AutotuneEvent>& events);
  // One worker, one lock; "plain" detaches, any other name pushes that
  // candidate's source. Sets *transport_failed when the failure is the
  // worker's socket (dead/wedged worker — evict) rather than a rejection
  // (bad candidate — back off).
  Status PushToWorkerLocked(Worker& worker, const std::string& lock_name,
                            const std::string& name, bool* transport_failed);
  // Brings a late joiner up to date with every incumbent/canary policy.
  // Returns false if the worker must be evicted (reason in *evict_reason).
  bool SyncWorkerLocked(Worker& worker, std::uint64_t now_ns,
                        std::vector<AutotuneEvent>& events,
                        std::string* evict_reason);

  // Per-worker RPC budget for policy pushes. Deliberately short: a worker
  // that cannot answer within this is treated as dead and evicted rather
  // than allowed to block the fleet loop.
  static constexpr std::uint64_t kPushTimeoutMs = 1'000;

  mutable std::mutex mu_;
  FleetAgentConfig config_;
  PolicyCandidateRegistry registry_;
  std::vector<std::unique_ptr<Worker>> workers_;
  CanaryEngine engine_;
  std::map<std::string, std::unique_ptr<CanaryEngine::Lock>> locks_;
  std::atomic<bool> running_{false};
};

}  // namespace concord

#endif  // SRC_CONCORD_AGENT_FLEET_H_
