#include "src/base/trace.h"

#include <algorithm>

#include "src/base/time.h"

namespace concord {

namespace trace_internal {
std::atomic<std::uint64_t> g_lock_bits[kMaxTraceLocks / 64] = {};
std::atomic<std::uint32_t> g_enabled_locks{0};
}  // namespace trace_internal

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAcquire:
      return "acquire";
    case TraceEventKind::kContended:
      return "contended";
    case TraceEventKind::kAcquired:
      return "acquired";
    case TraceEventKind::kRelease:
      return "release";
    case TraceEventKind::kPark:
      return "park";
    case TraceEventKind::kWake:
      return "wake";
    case TraceEventKind::kShuffleRound:
      return "shuffle_round";
    case TraceEventKind::kPolicyDispatch:
      return "policy_dispatch";
    case TraceEventKind::kBudgetTrip:
      return "budget_trip";
    case TraceEventKind::kQuarantine:
      return "quarantine";
  }
  return "unknown";
}

void TraceRing::Snapshot(std::uint32_t tid, std::vector<TraceEvent>& out) const {
  const std::uint64_t end = pos_.load(std::memory_order_acquire);
  const std::uint64_t count = end < kCapacity ? end : kCapacity;
  const std::uint64_t begin = end - count;
  const std::size_t first = out.size();
  for (std::uint64_t i = begin; i < end; ++i) {
    const Slot& slot = slots_[i & (kCapacity - 1)];
    TraceEvent event;
    event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    event.lock_id = slot.lock_id.load(std::memory_order_relaxed);
    const std::uint64_t kind_arg = slot.kind_arg.load(std::memory_order_relaxed);
    event.kind = static_cast<TraceEventKind>(kind_arg >> 48);
    event.arg = kind_arg & 0xFFFFFFFFFFFFull;
    event.tid = tid;
    out.push_back(event);
  }
  // Overwrite detection: any slot whose logical index fell behind the
  // writer's current window may have been clobbered mid-copy. Keep only
  // events still provably intact.
  const std::uint64_t end2 = pos_.load(std::memory_order_acquire);
  const std::uint64_t safe_begin = end2 < kCapacity ? 0 : end2 - kCapacity;
  if (safe_begin > begin) {
    const std::uint64_t drop = std::min<std::uint64_t>(safe_begin - begin, count);
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(first),
              out.begin() + static_cast<std::ptrdiff_t>(first + drop));
  }
}

TraceRegistry& TraceRegistry::Global() {
  static TraceRegistry* instance = new TraceRegistry();
  return *instance;
}

void TraceRegistry::EnableLock(std::uint64_t lock_id) {
  using trace_internal::g_enabled_locks;
  using trace_internal::g_lock_bits;
  using trace_internal::kMaxTraceLocks;
  if (lock_id == 0 || lock_id >= kMaxTraceLocks) {
    return;
  }
  const std::uint64_t bit = 1ull << (lock_id % 64);
  const std::uint64_t prev =
      g_lock_bits[lock_id / 64].fetch_or(bit, std::memory_order_relaxed);
  if ((prev & bit) == 0) {
    g_enabled_locks.fetch_add(1, std::memory_order_relaxed);
  }
}

void TraceRegistry::DisableLock(std::uint64_t lock_id) {
  using trace_internal::g_enabled_locks;
  using trace_internal::g_lock_bits;
  using trace_internal::kMaxTraceLocks;
  if (lock_id == 0 || lock_id >= kMaxTraceLocks) {
    return;
  }
  const std::uint64_t bit = 1ull << (lock_id % 64);
  const std::uint64_t prev =
      g_lock_bits[lock_id / 64].fetch_and(~bit, std::memory_order_relaxed);
  if ((prev & bit) != 0) {
    g_enabled_locks.fetch_sub(1, std::memory_order_relaxed);
  }
}

void TraceRegistry::DisableAll() {
  using trace_internal::kMaxTraceLocks;
  for (std::uint64_t word = 0; word < kMaxTraceLocks / 64; ++word) {
    const std::uint64_t prev = trace_internal::g_lock_bits[word].exchange(
        0, std::memory_order_relaxed);
    if (prev != 0) {
      trace_internal::g_enabled_locks.fetch_sub(
          static_cast<std::uint32_t>(__builtin_popcountll(prev)),
          std::memory_order_relaxed);
    }
  }
}

TraceRing& TraceRegistry::ThisThreadRing() {
  thread_local TraceRing* ring = nullptr;
  if (ring == nullptr) {
    std::lock_guard<std::mutex> guard(mu_);
    rings_.push_back(std::make_unique<TraceRing>());
    ring = rings_.back().get();
  }
  return *ring;
}

std::vector<TraceEvent> TraceRegistry::Collect() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (std::size_t i = 0; i < rings_.size(); ++i) {
      rings_[i]->Snapshot(static_cast<std::uint32_t>(i + 1), events);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return events;
}

void TraceRegistry::ClearEvents() {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& ring : rings_) {
    ring->Clear();
  }
}

void TraceRegistry::ResetForTest() {
  DisableAll();
  ClearEvents();
}

void TraceRecordSlow(std::uint64_t lock_id, TraceEventKind kind,
                     std::uint64_t arg) {
  TraceRegistry::Global().ThisThreadRing().Append(ClockNowNs(), lock_id, kind,
                                                  arg);
}

}  // namespace concord
