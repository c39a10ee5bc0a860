// The control loop — one thread per process that steps every control-plane
// component (§4.2, §6; docs/SAFETY.md, docs/AUTOTUNE.md).
//
// One Tick() runs, in this order:
//
//   1. ContainmentRegistry::Poll()   budget trips, backoff, probation
//   2. each started FairnessWatchdog  CheckOnce()
//   3. the autotune controller and the fleet agent, each when its
//      window_ns is due
//   4. each started ShmExporter       ExportOnce()
//
// Containment runs first so that a tuner never decides on a policy
// containment is about to take off the lock. Between ticks the thread sleeps
// until the earliest due step: kPeriodNs, or sooner when a tuner's window
// ends first. Due times come from ClockNowNs(); tests drive Tick() directly.
//
// The thread starts on the first attach that sets a hook budget, and on
// FairnessWatchdog::Start, Concord::EnableAutotune, ShmExporter::Start and
// FleetAgent::Start; once started it runs for the life of the process.
//
// Lock ordering: a tick holds mu_ while it steps, so mu_ comes before every
// component's own mutex. Start() never takes mu_: it is called from inside
// steps (an autotune canary with a budget attaching) and from RPC handlers a
// step waits on (a fleet push into this process).

#ifndef SRC_CONCORD_CONTROL_LOOP_H_
#define SRC_CONCORD_CONTROL_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace concord {

class FairnessWatchdog;
class ShmExporter;

class ControlLoop {
 public:
  // Containment, watchdog and exporter period.
  static constexpr std::uint64_t kPeriodNs = 10'000'000;  // 10ms

  static ControlLoop& Global();

  // Starts the loop thread unless it runs. Never blocks.
  void Start();
  bool thread_running() const {
    return running_.load(std::memory_order_acquire);
  }

  // One pass over every component; returns the ns until the next step is
  // due (at most kPeriodNs).
  std::uint64_t Tick();

  // Membership for components the process may destroy. Join also starts the
  // thread. Leave waits out a tick in progress, so once it returns the loop
  // never steps that component again; never call it from inside a step.
  void Join(FairnessWatchdog* watchdog);
  void Leave(FairnessWatchdog* watchdog);
  void Join(ShmExporter* exporter);
  void Leave(ShmExporter* exporter);

 private:
  friend class ScopedManualControlLoop;

  ControlLoop() = default;

  void Run();
  // Stops and joins the thread and keeps it off while `manual_` > 0.
  void Hold();
  void Release();

  // Guards the member lists and due times; held for a whole tick.
  std::mutex mu_;
  std::vector<FairnessWatchdog*> watchdogs_;
  std::vector<ShmExporter*> exporters_;
  std::uint64_t autotune_due_ns_ = 0;
  std::uint64_t fleet_due_ns_ = 0;

  // Thread lifecycle; never held while a tick steps.
  std::mutex thread_mu_;
  std::condition_variable wake_cv_;
  std::thread thread_;
  bool stop_ = false;
  int manual_ = 0;
  std::atomic<bool> running_{false};
};

// Test-only: while one is alive the loop thread stays off — a running thread
// is stopped first — so a test that steps components by hand (Tick(),
// Poll(), CheckOnce(), ExportOnce()) is the only thing stepping them. The
// thread starts again on the next Start() after the scope ends.
class ScopedManualControlLoop {
 public:
  ScopedManualControlLoop() { ControlLoop::Global().Hold(); }
  ~ScopedManualControlLoop() { ControlLoop::Global().Release(); }
  ScopedManualControlLoop(const ScopedManualControlLoop&) = delete;
  ScopedManualControlLoop& operator=(const ScopedManualControlLoop&) = delete;
};

}  // namespace concord

#endif  // SRC_CONCORD_CONTROL_LOOP_H_
