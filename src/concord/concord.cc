#include "src/concord/concord.h"

#include <utility>

#include "src/base/fault.h"
#include "src/base/json.h"
#include "src/base/time.h"
#include "src/base/trace.h"
#include "src/bpf/jit/jit.h"
#include "src/concord/autotune/controller.h"
#include "src/concord/containment.h"
#include "src/concord/control_loop.h"
#include "src/concord/trace_export.h"
#include "src/rcu/rcu.h"

namespace concord {

// The unit actually installed into a lock: a hook table whose slots are
// trampolines into the spec's chains and the profiler taps. Owned via
// shared_ptr by the registry entry; the previous table is released only
// after an RCU grace period.
struct CompiledPolicy {
  std::uint64_t lock_id = 0;
  std::shared_ptr<const PolicySpec> spec;    // nullable
  ShardedLockProfileStats* stats = nullptr;  // nullable; owned by the entry
  // Budget accounting, iff the spec sets a budget (hook_budget_ns != 0).
  std::unique_ptr<HookBudgetState> budget;
  // Faults observed inside policy dispatch (injected or real helper/map
  // failures), attributed via FaultRegistry::ThreadFires() deltas.
  std::atomic<std::uint64_t> dispatch_faults{0};
  // Raised by a dispatch fault or once the budget's overruns reach its trip
  // threshold; harvested (and cleared) by Concord::HarvestBudgetTrips().
  std::atomic<std::uint32_t> tripped{0};
  // Per hook kind: the chain reads ProfileCtx::now_ns (LockValue::kNowNs).
  bool reads_now[kNumHookKinds] = {};

  HookTable table;

  const HookChain* ChainFor(HookKind kind) const {
    if (spec == nullptr) {
      return nullptr;
    }
    const HookChain& chain = spec->ChainFor(kind);
    return chain.empty() ? nullptr : &chain;
  }
};

namespace {

// --- dispatch accounting -----------------------------------------------------
//
// Times one policy invocation against its runtime budget, if the policy set
// one, and (in a fault-injection build) attributes any fault fires on this
// thread to the table. The destructor only raises CompiledPolicy::tripped; it
// never detaches — trampolines run inside an RCU read section where waiting
// out a grace period would deadlock. ContainmentRegistry::Poll() harvests the
// flag asynchronously. Without a budget or fault injection the scope is one
// null test.

class DispatchScope {
 public:
  DispatchScope(CompiledPolicy* cp, HookKind kind)
      : cp_(cp), budget_(cp->budget.get()), kind_(kind) {
#if CONCORD_FAULT_INJECTION
    fires_before_ = FaultRegistry::ThreadFires();
#endif
    if (budget_ != nullptr) {
      start_ns_ = ClockNowNs();
    }
  }

  ~DispatchScope() {
#if CONCORD_FAULT_INJECTION
    if (FaultRegistry::ThreadFires() != fires_before_) {
      cp_->dispatch_faults.fetch_add(1, std::memory_order_relaxed);
      cp_->tripped.store(1, std::memory_order_release);
    }
#endif
    if (budget_ == nullptr) {
      return;
    }
    if (budget_->AccountDispatch(kind_, ElapsedSinceNs(start_ns_),
                                 cp_->stats)) {
      cp_->tripped.store(1, std::memory_order_release);
    }
  }

  DispatchScope(const DispatchScope&) = delete;
  DispatchScope& operator=(const DispatchScope&) = delete;

 private:
  CompiledPolicy* cp_;
  HookBudgetState* budget_;
  HookKind kind_;
  std::uint64_t start_ns_ = 0;
#if CONCORD_FAULT_INJECTION
  std::uint64_t fires_before_ = 0;
#endif
};

// Flight-recorder tap: one kPolicyDispatch event per policy hook invocation
// (arg = the HookKind), so a trace shows exactly where attached-policy time
// goes. Gated inside TraceRecord; free when the lock is not being traced.
inline void TraceDispatch(const CompiledPolicy* cp, HookKind kind) {
  TraceRecord(cp->lock_id, TraceEventKind::kPolicyDispatch,
              static_cast<std::uint64_t>(kind));
}

// The one kind rule: a hook the lock never consults cannot attach, whatever
// its programs' backend. ShflLock consults every hook but rw_mode; a
// readers-writer lock consults rw_mode and the lock_acquire, lock_acquired
// and lock_release taps (nothing of it queues through a hook point, so it
// never fires lock_contended).
Status CheckHookKinds(bool rw_lock, const std::string& lock_name,
                      const PolicySpec& spec) {
  for (int k = 0; k < kNumHookKinds; ++k) {
    const auto kind = static_cast<HookKind>(k);
    bool consulted = true;
    if (kind == HookKind::kCmpNode || kind == HookKind::kSkipShuffle ||
        kind == HookKind::kScheduleWaiter ||
        kind == HookKind::kLockContended) {
      consulted = !rw_lock;
    } else if (kind == HookKind::kRwMode) {
      consulted = rw_lock;
    }
    if (!consulted && !spec.ChainFor(kind).empty()) {
      return FailedPreconditionError(
          std::string("hook ") + HookKindName(kind) + " cannot attach to " +
          (rw_lock ? "readers-writer lock '" : "mutex '") + lock_name + "'");
    }
  }
  return Status::Ok();
}

// --- trampolines ---------------------------------------------------------------
//
// A trampoline is installed only for a hook whose chain is non-empty (or, for
// the taps, when profiling), so each one builds its context and makes the one
// dispatch call below.

// Trace event, budget scope, then the chain. A tap chain runs every program
// and ignores their results; a decision chain combines them.
std::uint64_t Dispatch(CompiledPolicy* cp, HookKind kind, void* ctx) {
  TraceDispatch(cp, kind);
  DispatchScope scope(cp, kind);
  const HookChain& chain = cp->spec->ChainFor(kind);
  if (kind >= HookKind::kLockAcquire && kind <= HookKind::kLockRelease) {
    for (const Program& program : chain.programs) {
      RunPolicyProgram(program, ctx);
    }
    return 0;
  }
  return RunDecisionChain(chain, ctx);
}

bool CmpNodeTrampoline(void* user_data, const ShflWaiterView& shuffler,
                       const ShflWaiterView& curr) {
  CmpNodeCtx ctx{shuffler, curr};
  return Dispatch(static_cast<CompiledPolicy*>(user_data), HookKind::kCmpNode,
                  &ctx) != 0;
}

bool SkipShuffleTrampoline(void* user_data, const ShflWaiterView& shuffler) {
  SkipShuffleCtx ctx{shuffler};
  return Dispatch(static_cast<CompiledPolicy*>(user_data),
                  HookKind::kSkipShuffle, &ctx) != 0;
}

bool ScheduleWaiterTrampoline(void* user_data, const ShflWaiterView& waiter,
                              std::uint32_t spin_iterations) {
  ScheduleWaiterCtx ctx{waiter, spin_iterations, 0};
  return Dispatch(static_cast<CompiledPolicy*>(user_data),
                  HookKind::kScheduleWaiter, &ctx) != 0;
}

std::uint32_t RwModeTrampoline(void* user_data) {
  auto* cp = static_cast<CompiledPolicy*>(user_data);
  RwModeCtx ctx{cp->lock_id};
  return static_cast<std::uint32_t>(Dispatch(cp, HookKind::kRwMode, &ctx));
}

// The policy's tap chain runs first, under its own budget scope, then the
// framework profiler: the budget bounds the *policy*. A program's now_ns is
// the lock's stamp of this event on a timed acquisition. Otherwise it is a
// clock read here if a program of the chain reads now_ns, and 0 if none does.
template <HookKind kKind>
void ProfileTapTrampoline(void* user_data, std::uint64_t lock_id,
                          const TapStamps& stamps) {
  auto* cp = static_cast<CompiledPolicy*>(user_data);
  if (cp->ChainFor(kKind) != nullptr) {
    std::uint64_t now_ns =
        kKind == HookKind::kLockAcquired  ? stamps.acquired_ns
        : kKind == HookKind::kLockRelease ? stamps.release_ns
                                          : 0;
    if (now_ns == 0 && cp->reads_now[static_cast<int>(kKind)]) {
      now_ns = MonotonicNowNs();
    }
    ProfileCtx ctx{lock_id, now_ns, static_cast<std::uint32_t>(kKind), 0};
    Dispatch(cp, kKind, &ctx);
  }
  if (cp->stats != nullptr) {
    if constexpr (kKind == HookKind::kLockAcquire) {
      ProfilerTaps::OnAcquire(*cp->stats, lock_id);
    } else if constexpr (kKind == HookKind::kLockContended) {
      ProfilerTaps::OnContended(*cp->stats, lock_id);
    } else if constexpr (kKind == HookKind::kLockAcquired) {
      ProfilerTaps::OnAcquired(*cp->stats, lock_id, stamps);
    } else {
      ProfilerTaps::OnRelease(*cp->stats, lock_id, stamps);
    }
  }
}

}  // namespace

Concord& Concord::Global() {
  static Concord* instance = new Concord();
  return *instance;
}

std::uint64_t Concord::RegisterShflLock(ShflLock& lock, std::string name,
                                        std::string lock_class) {
  return Register(lock.hook_site(), LockKind::kShfl, std::move(name),
                  std::move(lock_class));
}

std::uint64_t Concord::Register(HookSite& site, LockKind kind,
                                std::string name, std::string lock_class) {
  std::lock_guard<std::mutex> guard(mu_);
  CONCORD_CHECK(entries_.size() < kMaxLocks);
  auto entry = std::make_unique<Entry>();
  entry->kind = kind;
  entry->name = std::move(name);
  entry->lock_class = std::move(lock_class);
  entry->site = &site;
  entries_.push_back(std::move(entry));
  const std::uint64_t id = entries_.size();
  site.SetLockId(id);
  return id;
}

Concord::Entry* Concord::EntryFor(std::uint64_t lock_id) {
  if (lock_id == 0 || lock_id > entries_.size()) {
    return nullptr;
  }
  Entry* entry = entries_[lock_id - 1].get();
  return entry->kind == LockKind::kNone ? nullptr : entry;
}

const Concord::Entry* Concord::EntryFor(std::uint64_t lock_id) const {
  return const_cast<Concord*>(this)->EntryFor(lock_id);
}

Status Concord::Unregister(std::uint64_t lock_id) {
  CONCORD_RETURN_IF_ERROR(Detach(lock_id));
  {
    std::lock_guard<std::mutex> guard(mu_);
    Entry* entry = EntryFor(lock_id);
    if (entry == nullptr) {
      return NotFoundError("lock id " + std::to_string(lock_id));
    }
    // Drop profiling hooks too if they were installed.
    if (entry->current != nullptr) {
      entry->site->Install(nullptr);
      Rcu::Global().Synchronize();
      entry->current.reset();
    }
    TraceRegistry::Global().DisableLock(lock_id);
    entry->kind = LockKind::kNone;
    entry->site = nullptr;
    entry->quarantined = nullptr;
  }
  // Outside mu_: containment may hold its own mutex while calling into this
  // registry, never the other way around.
  ContainmentRegistry::Global().Forget(lock_id);
  return Status::Ok();
}

std::vector<std::uint64_t> Concord::Select(const std::string& selector) const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<std::uint64_t> result;
  const bool all = selector == "*";
  const bool by_class = selector.rfind("class:", 0) == 0;
  const std::string cls = by_class ? selector.substr(6) : "";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = *entries_[i];
    if (entry.kind == LockKind::kNone) {
      continue;
    }
    if (all || (by_class && entry.lock_class == cls) ||
        (!by_class && entry.name == selector)) {
      result.push_back(i + 1);
    }
  }
  return result;
}

StatusOr<std::uint64_t> Concord::Find(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mu_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i]->kind != LockKind::kNone && entries_[i]->name == name) {
      return static_cast<std::uint64_t>(i + 1);
    }
  }
  return NotFoundError("no lock named '" + name + "'");
}

std::string Concord::NameOf(std::uint64_t lock_id) const {
  std::lock_guard<std::mutex> guard(mu_);
  const Entry* entry = EntryFor(lock_id);
  return entry == nullptr ? "<unregistered>" : entry->name;
}

std::vector<Concord::LockInfo> Concord::ListLocks(
    const std::string& selector) const {
  const std::vector<std::uint64_t> ids = Select(selector);
  std::vector<LockInfo> result;
  std::lock_guard<std::mutex> guard(mu_);
  for (std::uint64_t id : ids) {
    const Entry* entry = EntryFor(id);
    if (entry == nullptr) {
      continue;
    }
    LockInfo info;
    info.lock_id = id;
    info.name = entry->name;
    info.lock_class = entry->lock_class;
    info.is_rw = entry->kind == LockKind::kRw;
    info.profiling = entry->profiling;
    info.tracing = TraceEnabled(id);
    info.has_policy = entry->attached != nullptr;
    info.policy_name = info.has_policy ? entry->attached->name : "";
    result.push_back(std::move(info));
  }
  return result;
}

Status Concord::ReinstallLocked(std::uint64_t lock_id) {
  Entry* entry = EntryFor(lock_id);
  if (entry == nullptr) {
    return NotFoundError("lock id " + std::to_string(lock_id));
  }

  const PolicySpec* spec = entry->attached.get();
  std::shared_ptr<CompiledPolicy> fresh;
  if (spec != nullptr || entry->profiling) {
    fresh = std::make_shared<CompiledPolicy>();
    fresh->lock_id = lock_id;
    fresh->spec = entry->attached;
    fresh->stats = entry->profiling ? entry->stats.get() : nullptr;

    // Budget accounting exists iff the policy sets a budget.
    if (spec != nullptr && spec->hook_budget_ns != 0) {
      fresh->budget = std::make_unique<HookBudgetState>();
      fresh->budget->budget_ns = spec->hook_budget_ns;
      fresh->budget->trip_overruns =
          spec->hook_budget_trip == 0 ? 1 : spec->hook_budget_trip;
    }

    // The attach-time kind check keeps slots the lock never consults empty,
    // so one table serves both lock families.
    HookTable& t = fresh->table;
    t.user_data = fresh.get();
    auto fills = [&](HookKind kind) { return fresh->ChainFor(kind) != nullptr; };
    if (fills(HookKind::kCmpNode)) {
      t.cmp_node = CmpNodeTrampoline;
    }
    if (fills(HookKind::kSkipShuffle)) {
      t.skip_shuffle = SkipShuffleTrampoline;
    }
    if (fills(HookKind::kScheduleWaiter)) {
      t.schedule_waiter = ScheduleWaiterTrampoline;
    }
    if (fills(HookKind::kRwMode)) {
      t.rw_mode = RwModeTrampoline;
    }
    // The profiler needs every tap; a policy only the ones it fills.
    const bool profiled = fresh->stats != nullptr;
    if (profiled || fills(HookKind::kLockAcquire)) {
      t.lock_acquire = ProfileTapTrampoline<HookKind::kLockAcquire>;
    }
    if (profiled || fills(HookKind::kLockContended)) {
      t.lock_contended = ProfileTapTrampoline<HookKind::kLockContended>;
    }
    if (profiled || fills(HookKind::kLockAcquired)) {
      t.lock_acquired = ProfileTapTrampoline<HookKind::kLockAcquired>;
    }
    if (profiled || fills(HookKind::kLockRelease)) {
      t.lock_release = ProfileTapTrampoline<HookKind::kLockRelease>;
    }
    if (spec != nullptr) {
      t.max_shuffle_rounds = spec->max_shuffle_rounds;
      t.max_waiter_bypasses = spec->max_waiter_bypasses;
      // The lock produces what its programs read, and nothing else.
      for (int k = 0; k < kNumHookKinds; ++k) {
        for (const Program& program : spec->chains[k].programs) {
          t.track_hold_time |= ReadsLockValue(program, LockValue::kCsEwmaNs);
          t.track_wait_time |= ReadsLockValue(program, LockValue::kWaitNs);
          fresh->reads_now[k] |= ReadsLockValue(program, LockValue::kNowNs);
        }
      }
    }
  }

  // Publish, wait a grace period, then let the old table die.
  std::shared_ptr<CompiledPolicy> old = entry->current;
  entry->site->Install(fresh != nullptr ? &fresh->table : nullptr);
  if (fresh != nullptr && fresh->stats != nullptr) {
    fresh->stats->SetTimedOneIn(HookSite::TimedOneIn(entry->site->mask()));
  }
  entry->current = fresh;
  if (old != nullptr || fresh != nullptr) {
    Rcu::Global().Synchronize();
  }
  // `old`, with its budget, destructs here (after the grace period).
  return Status::Ok();
}

Status Concord::Attach(std::uint64_t lock_id, PolicySpec spec) {
  const std::string policy_name = spec.name;
  const std::uint64_t budget_ns = spec.hook_budget_ns;
  std::uint32_t jit_failures = 0;
  Status status;
  {
    std::lock_guard<std::mutex> guard(mu_);
    Entry* entry = EntryFor(lock_id);
    if (entry == nullptr) {
      return NotFoundError("lock id " + std::to_string(lock_id));
    }
    CONCORD_RETURN_IF_ERROR(
        CheckHookKinds(entry->kind == LockKind::kRw, entry->name, spec));
    CONCORD_RETURN_IF_ERROR(spec.VerifyAll());
    // Compile the now-verified chains to native code (no-op when the JIT is
    // disabled; per-program failures keep the interpreter and are surfaced
    // to containment as an informational event).
    jit_failures = spec.JitCompileAll();
    entry->attached = std::make_shared<const PolicySpec>(std::move(spec));
    // A manual attach supersedes anything parked by a quarantine.
    entry->quarantined = nullptr;
    status = ReinstallLocked(lock_id);
  }
  // Containment notifications happen outside mu_: the sanctioned lock order
  // is containment -> concord, never the reverse.
  if (status.ok()) {
    ContainmentRegistry::Global().OnManualAttach(lock_id, policy_name);
    if (jit_failures > 0) {
      ContainmentRegistry::Global().NoteJitFallback(lock_id, policy_name,
                                                    jit_failures);
    }
    // A hook budget is only enforced once containment polls its trip flag,
    // so the first budgeted attach starts the control loop.
    if (budget_ns != 0) {
      ControlLoop::Global().Start();
    }
  }
  return status;
}

Status Concord::AttachBySelector(const std::string& selector,
                                 const PolicySpec& spec) {
  const std::vector<std::uint64_t> ids = Select(selector);
  if (ids.empty()) {
    return NotFoundError("selector '" + selector + "' matches no locks");
  }
  for (std::uint64_t id : ids) {
    PolicySpec copy = spec;
    CONCORD_RETURN_IF_ERROR(Attach(id, std::move(copy)));
  }
  return Status::Ok();
}

Status Concord::Detach(std::uint64_t lock_id) {
  Status status;
  {
    std::lock_guard<std::mutex> guard(mu_);
    Entry* entry = EntryFor(lock_id);
    if (entry == nullptr) {
      return NotFoundError("lock id " + std::to_string(lock_id));
    }
    entry->attached = nullptr;
    entry->quarantined = nullptr;
    status = ReinstallLocked(lock_id);
  }
  if (status.ok()) {
    ContainmentRegistry::Global().OnManualDetach(lock_id);
  }
  return status;
}

Status Concord::DetachForQuarantine(std::uint64_t lock_id) {
  std::lock_guard<std::mutex> guard(mu_);
  Entry* entry = EntryFor(lock_id);
  if (entry == nullptr) {
    return NotFoundError("lock id " + std::to_string(lock_id));
  }
  if (entry->attached == nullptr) {
    return FailedPreconditionError("'" + entry->name +
                                   "' has no attached policy to quarantine");
  }
  entry->quarantined = std::move(entry->attached);
  return ReinstallLocked(lock_id);
}

Status Concord::ReattachFromQuarantine(std::uint64_t lock_id) {
  std::lock_guard<std::mutex> guard(mu_);
  Entry* entry = EntryFor(lock_id);
  if (entry == nullptr) {
    return NotFoundError("lock id " + std::to_string(lock_id));
  }
  if (entry->quarantined == nullptr) {
    return FailedPreconditionError("'" + entry->name +
                                   "' has no quarantined policy to re-attach");
  }
  entry->attached = std::move(entry->quarantined);
  return ReinstallLocked(lock_id);
}

std::string Concord::AttachedPolicyName(std::uint64_t lock_id) const {
  std::lock_guard<std::mutex> guard(mu_);
  const Entry* entry = EntryFor(lock_id);
  const PolicySpec* spec = entry == nullptr          ? nullptr
                           : entry->attached != nullptr ? entry->attached.get()
                                                        : entry->quarantined.get();
  return spec == nullptr ? "" : spec->name;
}

std::vector<Concord::BudgetTrip> Concord::HarvestBudgetTrips() {
  std::vector<BudgetTrip> trips;
  std::lock_guard<std::mutex> guard(mu_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry* entry = entries_[i].get();
    CompiledPolicy* cp = entry->current.get();
    if (entry->kind == LockKind::kNone || cp == nullptr ||
        cp->tripped.exchange(0, std::memory_order_acq_rel) == 0) {
      continue;
    }
    BudgetTrip trip;
    trip.lock_id = i + 1;
    trip.policy_name = entry->attached != nullptr ? entry->attached->name : "";
    trip.dispatch_faults = cp->dispatch_faults.load(std::memory_order_relaxed);
    if (cp->budget != nullptr) {
      trip.overruns = cp->budget->overruns.load(std::memory_order_relaxed);
      trip.max_observed_ns = cp->budget->max_ns.load(std::memory_order_relaxed);
    }
    TraceRecord(trip.lock_id, TraceEventKind::kBudgetTrip, trip.overruns);
    trips.push_back(std::move(trip));
  }
  return trips;
}

const HookBudgetState* Concord::BudgetState(std::uint64_t lock_id) const {
  std::lock_guard<std::mutex> guard(mu_);
  const Entry* entry = EntryFor(lock_id);
  return entry == nullptr || entry->current == nullptr
             ? nullptr
             : entry->current->budget.get();
}

Status Concord::EnableProfiling(std::uint64_t lock_id) {
  std::lock_guard<std::mutex> guard(mu_);
  Entry* entry = EntryFor(lock_id);
  if (entry == nullptr) {
    return NotFoundError("lock id " + std::to_string(lock_id));
  }
  if (entry->stats == nullptr) {
    entry->stats = std::make_unique<ShardedLockProfileStats>();
  }
  entry->profiling = true;
  entry->profile_window_start_ns = ClockNowNs();
  return ReinstallLocked(lock_id);
}

Status Concord::EnableProfilingBySelector(const std::string& selector) {
  const std::vector<std::uint64_t> ids = Select(selector);
  if (ids.empty()) {
    return NotFoundError("selector '" + selector + "' matches no locks");
  }
  for (std::uint64_t id : ids) {
    CONCORD_RETURN_IF_ERROR(EnableProfiling(id));
  }
  return Status::Ok();
}

Status Concord::DisableProfiling(std::uint64_t lock_id) {
  std::lock_guard<std::mutex> guard(mu_);
  Entry* entry = EntryFor(lock_id);
  if (entry == nullptr) {
    return NotFoundError("lock id " + std::to_string(lock_id));
  }
  entry->profiling = false;
  return ReinstallLocked(lock_id);
}

const ShardedLockProfileStats* Concord::Stats(std::uint64_t lock_id) const {
  std::lock_guard<std::mutex> guard(mu_);
  const Entry* entry = EntryFor(lock_id);
  return entry == nullptr ? nullptr : entry->stats.get();
}

ShardedLockProfileStats* Concord::MutableStats(std::uint64_t lock_id) {
  std::lock_guard<std::mutex> guard(mu_);
  Entry* entry = EntryFor(lock_id);
  return entry == nullptr ? nullptr : entry->stats.get();
}

std::string Concord::ProfileReport(const std::string& selector) const {
  const std::vector<std::uint64_t> ids = Select(selector);
  std::string report;
  std::lock_guard<std::mutex> guard(mu_);
  for (std::uint64_t id : ids) {
    const Entry* entry = EntryFor(id);
    if (entry == nullptr || entry->stats == nullptr) {
      continue;
    }
    report += entry->name + " [" + entry->lock_class + "]: " +
              entry->stats->Snapshot().Summary() + "\n";
  }
  return report;
}

std::string Concord::StatsJson(const std::string& selector) const {
  const std::vector<std::uint64_t> ids = Select(selector);
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("locks").BeginArray();
  {
    std::lock_guard<std::mutex> guard(mu_);
    const std::uint64_t now_ns = ClockNowNs();
    for (std::uint64_t id : ids) {
      const Entry* entry = EntryFor(id);
      if (entry == nullptr || entry->stats == nullptr) {
        continue;
      }
      writer.BeginObject();
      writer.NumberField("lock_id", id);
      writer.Field("name", entry->name);
      writer.Field("class", entry->lock_class);
      writer.Key("window").BeginObject();
      writer.NumberField("start_ns", entry->profile_window_start_ns);
      writer.NumberField("end_ns", now_ns);
      writer.EndObject();
      writer.Key("stats");
      entry->stats->Snapshot().AppendJson(writer);
      const PolicySpec* spec = entry->attached.get();
      if (spec != nullptr && !spec->maps.empty()) {
        writer.Key("policy_maps").BeginArray();
        for (const auto& map : spec->maps) {
          AppendMapDumpJson(writer, *map);
        }
        writer.EndArray();
      }
      writer.EndObject();
    }
  }
  writer.EndArray();
  writer.EndObject();
  return writer.TakeString();
}

StatusOr<std::string> Concord::MapDumpJson(const std::string& selector,
                                           const std::string& map_name) const {
  const std::vector<std::uint64_t> ids = Select(selector);
  if (ids.empty()) {
    return NotFoundError("selector '" + selector + "' matches no locks");
  }
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("locks").BeginArray();
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (std::uint64_t id : ids) {
      const Entry* entry = EntryFor(id);
      if (entry == nullptr || entry->attached == nullptr) {
        continue;
      }
      const PolicySpec& spec = *entry->attached;
      writer.BeginObject();
      writer.NumberField("lock_id", id);
      writer.Field("name", entry->name);
      writer.Field("policy", spec.name);
      writer.Key("maps").BeginArray();
      for (const auto& map : spec.maps) {
        if (!map_name.empty() && map->name() != map_name) {
          continue;
        }
        AppendMapDumpJson(writer, *map);
      }
      writer.EndArray();
      writer.EndObject();
    }
  }
  writer.EndArray();
  writer.EndObject();
  return writer.TakeString();
}

Status Concord::EnableTracing(std::uint64_t lock_id) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (EntryFor(lock_id) == nullptr) {
      return NotFoundError("lock id " + std::to_string(lock_id));
    }
  }
  TraceRegistry::Global().EnableLock(lock_id);
  return Status::Ok();
}

Status Concord::EnableTracingBySelector(const std::string& selector) {
  const std::vector<std::uint64_t> ids = Select(selector);
  if (ids.empty()) {
    return NotFoundError("selector '" + selector + "' matches no locks");
  }
  for (std::uint64_t id : ids) {
    CONCORD_RETURN_IF_ERROR(EnableTracing(id));
  }
  return Status::Ok();
}

Status Concord::DisableTracing(std::uint64_t lock_id) {
  TraceRegistry::Global().DisableLock(lock_id);
  return Status::Ok();
}

std::vector<TraceEvent> Concord::TraceEvents() const {
  return TraceRegistry::Global().Collect();
}

std::string Concord::TraceChromeJson() const {
  const std::vector<TraceEvent> events = TraceEvents();
  std::map<std::uint64_t, std::string> names;
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i]->kind != LockKind::kNone) {
        names[i + 1] = entries_[i]->name;
      }
    }
  }
  return ChromeTraceJson(events, names);
}

namespace {

// CONCORD_AUTOTUNE is a kill switch, not an enable: unset means allowed.
bool AutotuneDisabledByEnv() {
  const char* env = std::getenv("CONCORD_AUTOTUNE");
  if (env == nullptr) {
    return false;
  }
  const std::string value(env);
  return value == "0" || value == "off" || value == "false";
}

}  // namespace

Status Concord::EnableAutotune(const std::string& selector) {
  return EnableAutotune(selector, AutotuneConfig{});
}

Status Concord::EnableAutotune(const std::string& selector,
                               const AutotuneConfig& config) {
  if (AutotuneDisabledByEnv()) {
    return FailedPreconditionError(
        "autotune disabled by CONCORD_AUTOTUNE environment variable");
  }
  auto& controller = AutotuneController::Global();
  CONCORD_RETURN_IF_ERROR(controller.Configure(config));
  CONCORD_RETURN_IF_ERROR(controller.EnrollSelector(selector));
  controller.Start();
  return Status::Ok();
}

Status Concord::DisableAutotune() {
  AutotuneController::Global().Stop();
  return Status::Ok();
}

std::string Concord::AutotuneStatusJson() const {
  return AutotuneController::Global().StatusJson();
}

void Concord::ResetForTest() {
  // The controller walks registered locks; take it off the control loop
  // (and forget it) before tearing the registry down under it.
  AutotuneController::Global().ResetForTest();
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i]->kind != LockKind::kNone) {
        ids.push_back(i + 1);
      }
    }
  }
  for (std::uint64_t id : ids) {
    Unregister(id);
  }
  {
    std::lock_guard<std::mutex> guard(mu_);
    entries_.clear();
  }
  TraceRegistry::Global().ResetForTest();
  ContainmentRegistry::Global().ResetForTest();
}

}  // namespace concord
