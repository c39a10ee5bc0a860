// Flight-recorder export: turns a collected TraceEvent stream into Chrome
// trace-event JSON (loads in Perfetto / chrome://tracing), with matched
// acquire->acquired wait spans and acquired->release hold spans drawn as
// complete ("X") events on per-thread tracks, and everything else
// (contended/park/wake/shuffle/dispatch/budget/quarantine) as instants.
// Per-lock totals come from the profiler (Concord::Stats), not from the
// rings, which keep only the newest events of each thread.
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
