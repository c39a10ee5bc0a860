#include "src/concord/control_loop.h"

#include <algorithm>
#include <chrono>

#include "src/base/time.h"
#include "src/concord/agent/fleet.h"
#include "src/concord/agent/worker_export.h"
#include "src/concord/autotune/controller.h"
#include "src/concord/containment.h"
#include "src/concord/safety.h"

namespace concord {

ControlLoop& ControlLoop::Global() {
  static ControlLoop* loop = new ControlLoop();
  return *loop;
}

void ControlLoop::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> guard(thread_mu_);
  if (running_.load(std::memory_order_relaxed) || manual_ > 0) {
    return;
  }
  stop_ = false;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
}

void ControlLoop::Run() {
  for (;;) {
    const std::uint64_t sleep_ns = Tick();
    std::unique_lock<std::mutex> lock(thread_mu_);
    if (wake_cv_.wait_for(lock, std::chrono::nanoseconds(sleep_ns),
                          [this] { return stop_; })) {
      return;
    }
  }
}

void ControlLoop::Hold() {
  std::thread stopping;
  {
    std::lock_guard<std::mutex> guard(thread_mu_);
    ++manual_;
    stop_ = true;
    stopping = std::move(thread_);
  }
  wake_cv_.notify_all();
  if (stopping.joinable()) {
    stopping.join();
  }
  running_.store(false, std::memory_order_release);
}

void ControlLoop::Release() {
  std::lock_guard<std::mutex> guard(thread_mu_);
  --manual_;
}

std::uint64_t ControlLoop::Tick() {
  std::lock_guard<std::mutex> guard(mu_);
  const std::uint64_t now_ns = ClockNowNs();
  (void)ContainmentRegistry::Global().Poll();
  for (FairnessWatchdog* watchdog : watchdogs_) {
    (void)watchdog->CheckOnce();
  }
  std::uint64_t sleep_ns = kPeriodNs;
  const auto step_tuner = [&](auto& tuner, std::uint64_t& due_ns) {
    if (!tuner.running()) {
      return;
    }
    if (now_ns >= due_ns) {
      (void)tuner.Tick();
      due_ns = now_ns + tuner.config().window_ns;
    }
    sleep_ns = std::min(sleep_ns, due_ns - now_ns);
  };
  step_tuner(AutotuneController::Global(), autotune_due_ns_);
  step_tuner(FleetAgent::Global(), fleet_due_ns_);
  for (ShmExporter* exporter : exporters_) {
    // A failed publish only skips a beat; the agent sees no progress.
    (void)exporter->ExportOnce();
  }
  return sleep_ns;
}

void ControlLoop::Join(FairnessWatchdog* watchdog) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (std::find(watchdogs_.begin(), watchdogs_.end(), watchdog) ==
        watchdogs_.end()) {
      watchdogs_.push_back(watchdog);
    }
  }
  Start();
}

void ControlLoop::Leave(FairnessWatchdog* watchdog) {
  std::lock_guard<std::mutex> guard(mu_);
  watchdogs_.erase(std::remove(watchdogs_.begin(), watchdogs_.end(), watchdog),
                   watchdogs_.end());
}

void ControlLoop::Join(ShmExporter* exporter) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (std::find(exporters_.begin(), exporters_.end(), exporter) ==
        exporters_.end()) {
      exporters_.push_back(exporter);
    }
  }
  Start();
}

void ControlLoop::Leave(ShmExporter* exporter) {
  std::lock_guard<std::mutex> guard(mu_);
  exporters_.erase(std::remove(exporters_.begin(), exporters_.end(), exporter),
                   exporters_.end());
}

}  // namespace concord
