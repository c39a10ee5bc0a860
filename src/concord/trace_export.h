// Flight-recorder export: turns a collected TraceEvent stream into
//   - Chrome trace-event JSON (loads in Perfetto / chrome://tracing), with
//     matched acquire->acquired wait spans and acquired->release hold spans
//     drawn as complete ("X") events on per-thread tracks, and everything
//     else (park/wake/shuffle/dispatch/budget/quarantine) as instants;
//   - per-lock roll-up summaries for top-style "most contended" views.
//
// Matching is per (thread, lock) and LIFO: on recursive acquisition the
// innermost acquire pairs with the innermost acquired/release.

#ifndef SRC_CONCORD_TRACE_EXPORT_H_
#define SRC_CONCORD_TRACE_EXPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/base/trace.h"
#include "src/bpf/maps.h"

namespace concord {

// Per-lock counters derived purely from an event stream. Wait/hold totals
// only include matched pairs; events whose partner fell out of the ring
// (overwritten) or is still in flight are counted in unmatched_events.
struct TraceLockSummary {
  std::uint64_t lock_id = 0;
  std::uint64_t acquisitions = 0;   // kAcquired events
  std::uint64_t contentions = 0;    // kContended events
  std::uint64_t releases = 0;       // kRelease events
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  std::uint64_t shuffle_rounds = 0;
  std::uint64_t policy_dispatches = 0;
  std::uint64_t budget_trips = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t matched_waits = 0;  // acquire->acquired pairs
  std::uint64_t matched_holds = 0;  // acquired->release pairs
  std::uint64_t total_wait_ns = 0;
  std::uint64_t total_hold_ns = 0;
  std::uint64_t max_wait_ns = 0;
  std::uint64_t max_hold_ns = 0;
  std::uint64_t unmatched_events = 0;
};

// Rolls the stream up per lock id, sorted by total_wait_ns descending
// (most contended first), ties broken by lock id. `events` must be
// ts-sorted, as returned by TraceRegistry::Collect().
std::vector<TraceLockSummary> SummarizeTrace(
    const std::vector<TraceEvent>& events);

// Chrome trace-event JSON: {"displayTimeUnit":"ns","traceEvents":[...]}.
// Timestamps are emitted in microseconds (the format's unit). `lock_names`
// maps lock ids to display names; unmapped ids render as "lock<id>".
std::string ChromeTraceJson(
    const std::vector<TraceEvent>& events,
    const std::map<std::uint64_t, std::string>& lock_names = {});

// Generic policy-map dump, shared by Concord::StatsJson's `policy_maps`
// roll-up, Concord::MapDumpJson and the `map.dump` RPC verb. Emits one
// object per key with a `values` array holding one element per CPU slot
// (one element for single-instance maps) — u64 values as numbers plus a
// cross-CPU `sum`, anything else as hex strings. Relies on ForEach's
// per-CPU contract (same key visited num_cpus times, in CPU order).
void AppendMapDumpJson(JsonWriter& writer, BpfMap& map);

}  // namespace concord

#endif  // SRC_CONCORD_TRACE_EXPORT_H_
