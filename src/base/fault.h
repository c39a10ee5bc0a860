// Deterministic fault injection (robustness harness).
//
// The containment story (docs/SAFETY.md) claims the framework degrades
// gracefully when things fail *underneath* a verified policy: a helper
// returning an error, a map lookup missing, the JIT refusing to compile, a
// parking-lot wakeup arriving late. Those failures are rare in production and
// impossible to schedule from a test — so this header plants named fault
// points at each of those sites and lets tests (or the CONCORD_FAULTS
// environment variable, for the CI chaos job) arm them with a seeded,
// deterministic firing schedule.
//
// Fault points compile out entirely when CONCORD_FAULT_INJECTION is 0 (the
// default for Release builds; see the top-level CMakeLists.txt): the macros
// below become constants and every `if` guarding a fault folds away. When
// compiled in but nothing is armed, the cost per site is one relaxed atomic
// load.
//
// Registered sites (discoverable at runtime via FaultRegistry::ListPoints(),
// the `faults.list` RPC verb, or a `CONCORD_FAULTS=list` startup dump):
//   bpf.map_lookup     map_lookup_elem helper returns null      (helpers.cc)
//   bpf.helper         map_update/map_delete helpers return -1  (helpers.cc)
//   jit.compile        Jit::Compile fails -> interpreter tier   (jit/jit.cc)
//   park.delayed_wake  UnparkOne delayed by delay_ns            (parking_lot.cc)
//   autotune.decide    autotune controller decision step aborts (autotune/controller.cc)
//   rpc.accept         accepted control-plane connection dropped (rpc/server.cc)
//   rpc.read           request read fails mid-connection         (rpc/server.cc)
//   rpc.write          response write fails / client vanishes    (rpc/server.cc)
//   rpc.handler        verb handler aborts with internal error   (rpc/dispatch.cc)
//   agent.shm_map      agent shm segment (re)map fails           (agent/fleet.cc)
//   agent.merge        agent merged decision step skipped        (agent/fleet.cc)

#ifndef SRC_BASE_FAULT_H_
#define SRC_BASE_FAULT_H_

#include <cstdint>

#ifndef CONCORD_FAULT_INJECTION
#define CONCORD_FAULT_INJECTION 0
#endif

#if CONCORD_FAULT_INJECTION

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace concord {

class FaultRegistry {
 public:
  enum class Mode : std::uint8_t {
    kAlways,  // every evaluation fires
    kOneIn,   // fires pseudo-randomly at rate 1/n (seeded, deterministic)
    kNth,     // fires exactly on the n-th evaluation (1-based), once
    kFirstN,  // fires on the first n evaluations, then never again
  };

  struct Spec {
    Mode mode = Mode::kAlways;
    std::uint64_t n = 1;
    std::uint64_t seed = 0;
    // For delay-style sites (FireDelayNs): how long the injected stall lasts.
    std::uint64_t delay_ns = 0;
  };

  static FaultRegistry& Global();

  // Arms `point` (replacing any previous arming; evaluation/fire counters
  // reset).
  void Arm(const std::string& point, Spec spec);

  // Parses one `point=modespec[@delay_ns]` directive, where modespec is
  // `always`, `1inN[:seed]`, `nthN` or `firstN`. Returns false (and arms
  // nothing) on a malformed directive.
  bool ArmFromDirective(const std::string& directive);

  void Disarm(const std::string& point);
  void DisarmAll();

  // Hot-path check: true when the armed fault at `point` fires on this
  // evaluation. Unarmed points never fire and cost one relaxed load.
  bool ShouldFire(const char* point);

  // Delay-site variant: the armed delay_ns when the fault fires, 0 otherwise.
  std::uint64_t FireDelayNs(const char* point);

  // Introspection for tests and the chaos harness.
  std::uint64_t Evaluations(const std::string& point) const;
  std::uint64_t Fires(const std::string& point) const;

  // One row per discoverable fault point: every site compiled into the
  // binary (the table in fault.cc) plus anything armed ad hoc (tests may arm
  // names with no compiled site). Operators reach this through the
  // `faults.list` RPC verb or CONCORD_FAULTS=list instead of grepping.
  struct PointInfo {
    std::string name;
    std::string description;  // "" for ad-hoc points with no compiled site
    bool armed = false;
    std::string directive;  // armed spec as a modespec[@delay] string
    std::uint64_t evaluations = 0;
    std::uint64_t fires = 0;
  };
  std::vector<PointInfo> ListPoints() const;

  // Total fires observed on the calling thread, ever. Dispatch-path code
  // samples this around a policy run to attribute injected faults to the
  // policy that hit them (see src/concord/concord.cc).
  static std::uint64_t ThreadFires();

  // Address of the armed-point count, for code that wants to branch around
  // an inlined fast path while any fault is armed (the JIT emits a
  // `cmp [armed],0; jne slow_path` against this). Zero iff nothing is armed.
  const std::atomic<int>* armed_flag() const { return &armed_; }

 private:
  struct Point {
    std::string name;
    Spec spec;
    std::uint64_t evaluations = 0;
    std::uint64_t fires = 0;
  };

  FaultRegistry();

  Point* FindLocked(const char* point);
  void LoadFromEnv();

  std::atomic<int> armed_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Point>> points_;
};

}  // namespace concord

#define CONCORD_FAULT_POINT(name) (::concord::FaultRegistry::Global().ShouldFire(name))
#define CONCORD_FAULT_DELAY_NS(name) \
  (::concord::FaultRegistry::Global().FireDelayNs(name))

#else  // !CONCORD_FAULT_INJECTION

#define CONCORD_FAULT_POINT(name) (false)
#define CONCORD_FAULT_DELAY_NS(name) (std::uint64_t{0})

#endif  // CONCORD_FAULT_INJECTION

#endif  // SRC_BASE_FAULT_H_
