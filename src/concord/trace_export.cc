#include "src/concord/trace_export.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/base/json.h"

namespace concord {
namespace {

// LIFO matcher state for one (tid, lock_id) pair.
struct MatchState {
  std::vector<std::uint64_t> wait_starts;  // kAcquire timestamps
  std::vector<std::uint64_t> hold_starts;  // kAcquired timestamps
};

std::uint64_t PairKey(std::uint32_t tid, std::uint64_t lock_id) {
  return (static_cast<std::uint64_t>(tid) << 32) | (lock_id & 0xFFFFFFFFull);
}

std::string LockLabel(std::uint64_t lock_id,
                      const std::map<std::uint64_t, std::string>& lock_names) {
  const auto it = lock_names.find(lock_id);
  if (it != lock_names.end()) {
    return it->second;
  }
  return "lock" + std::to_string(lock_id);
}

// One Chrome trace event. `ph` "X" events carry a duration; "i" instants
// carry a scope. ts/dur are microseconds per the trace-event format.
void AppendChromeEvent(JsonWriter& writer, const std::string& name,
                       const char* cat, const char* ph, std::uint64_t ts_ns,
                       std::uint64_t dur_ns, std::uint32_t tid,
                       std::uint64_t lock_id, std::uint64_t arg,
                       bool has_arg) {
  writer.BeginObject();
  writer.Field("name", name);
  writer.Field("cat", cat);
  writer.Field("ph", ph);
  writer.NumberField("ts", static_cast<double>(ts_ns) / 1000.0);
  if (ph[0] == 'X') {
    writer.NumberField("dur", static_cast<double>(dur_ns) / 1000.0);
  } else {
    writer.Field("s", "t");  // thread-scoped instant
  }
  writer.NumberField("pid", 1);
  writer.NumberField("tid", tid);
  writer.Key("args").BeginObject();
  writer.NumberField("lock_id", lock_id);
  if (has_arg) {
    writer.NumberField("arg", arg);
  }
  writer.EndObject();
  writer.EndObject();
}

}  // namespace

std::string ChromeTraceJson(
    const std::vector<TraceEvent>& events,
    const std::map<std::uint64_t, std::string>& lock_names) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Field("displayTimeUnit", "ns");
  writer.Key("traceEvents").BeginArray();

  std::map<std::uint64_t, MatchState> matchers;
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& event : events) {
    if (std::find(tids.begin(), tids.end(), event.tid) == tids.end()) {
      tids.push_back(event.tid);
    }
    const std::string label = LockLabel(event.lock_id, lock_names);
    MatchState& m = matchers[PairKey(event.tid, event.lock_id)];
    switch (event.kind) {
      case TraceEventKind::kAcquire:
        m.wait_starts.push_back(event.ts_ns);
        break;
      case TraceEventKind::kAcquired:
        if (!m.wait_starts.empty()) {
          const std::uint64_t start = m.wait_starts.back();
          m.wait_starts.pop_back();
          AppendChromeEvent(writer, label + " wait", "wait", "X", start,
                            event.ts_ns - start, event.tid, event.lock_id, 0,
                            /*has_arg=*/false);
        }
        m.hold_starts.push_back(event.ts_ns);
        break;
      case TraceEventKind::kRelease:
        if (!m.hold_starts.empty()) {
          const std::uint64_t start = m.hold_starts.back();
          m.hold_starts.pop_back();
          AppendChromeEvent(writer, label + " hold", "hold", "X", start,
                            event.ts_ns - start, event.tid, event.lock_id, 0,
                            /*has_arg=*/false);
        }
        break;
      case TraceEventKind::kContended:
      case TraceEventKind::kPark:
      case TraceEventKind::kWake:
      case TraceEventKind::kShuffleRound:
      case TraceEventKind::kPolicyDispatch:
      case TraceEventKind::kBudgetTrip:
      case TraceEventKind::kQuarantine:
        AppendChromeEvent(
            writer, label + " " + TraceEventKindName(event.kind), "lock", "i",
            event.ts_ns, 0, event.tid, event.lock_id, event.arg,
            /*has_arg=*/true);
        break;
    }
  }

  // Thread tracks get stable names so Perfetto's timeline is readable.
  for (std::uint32_t tid : tids) {
    writer.BeginObject();
    writer.Field("name", "thread_name");
    writer.Field("ph", "M");
    writer.NumberField("pid", 1);
    writer.NumberField("tid", tid);
    writer.Key("args").BeginObject();
    writer.Field("name", "recorder thread " + std::to_string(tid));
    writer.EndObject();
    writer.EndObject();
  }

  writer.EndArray();
  writer.EndObject();
  return writer.TakeString();
}

namespace {

std::string HexBytes(const void* data, std::uint32_t size) {
  static const char kDigits[] = "0123456789abcdef";
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::string out = "0x";
  for (std::uint32_t i = 0; i < size; ++i) {
    out += kDigits[bytes[i] >> 4];
    out += kDigits[bytes[i] & 0xf];
  }
  return out;
}

}  // namespace

void AppendMapDumpJson(JsonWriter& writer, BpfMap& map) {
  writer.BeginObject();
  writer.Field("name", map.name());
  writer.Field("type", MapTypeName(map.type()));
  writer.NumberField("key_size", map.key_size());
  writer.NumberField("value_size", map.value_size());
  writer.NumberField("max_entries", map.max_entries());
  writer.NumberField("num_cpus", map.num_cpus());
  writer.NumberField("live", map.Size());
  writer.Key("entries").BeginArray();

  const std::uint32_t key_size = map.key_size();
  const bool u64_values = map.value_size() >= sizeof(std::uint64_t);
  std::vector<std::uint8_t> cur_key;
  bool open = false;
  std::uint64_t sum = 0;
  auto close = [&] {
    if (!open) {
      return;
    }
    writer.EndArray();  // values
    if (u64_values) {
      writer.NumberField("sum", sum);
    }
    writer.EndObject();
    open = false;
  };

  map.ForEach([&](const void* key, const void* value) {
    if (!open || std::memcmp(cur_key.data(), key, key_size) != 0) {
      close();
      const auto* kb = static_cast<const std::uint8_t*>(key);
      cur_key.assign(kb, kb + key_size);
      writer.BeginObject();
      writer.Field("key", HexBytes(key, key_size));
      writer.Key("values").BeginArray();
      sum = 0;
      open = true;
    }
    if (u64_values) {
      // Relaxed atomic lane read: dumps race benignly with policy counters.
      const std::uint64_t lane = __atomic_load_n(
          reinterpret_cast<const std::uint64_t*>(value), __ATOMIC_RELAXED);
      writer.Number(lane);
      sum += lane;
    } else {
      writer.String(HexBytes(value, map.value_size()));
    }
  });
  close();

  writer.EndArray();
  writer.EndObject();
}

}  // namespace concord
