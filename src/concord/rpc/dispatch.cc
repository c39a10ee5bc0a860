#include "src/concord/rpc/dispatch.h"

#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "src/base/fault.h"
#include "src/base/time.h"
#include "src/concord/agent/fleet.h"
#include "src/concord/autotune/controller.h"
#include "src/concord/concord.h"
#include "src/concord/containment.h"
#include "src/concord/hooks.h"
#include "src/concord/policy_source.h"

namespace concord {
namespace {

// --- param helpers -----------------------------------------------------------

std::string StringParam(const JsonValue& params, const std::string& key,
                        const std::string& fallback) {
  const JsonValue* value = params.Find(key);
  if (value == nullptr || !value->IsString()) {
    return fallback;
  }
  return value->string_value;
}

StatusOr<std::string> RequiredStringParam(const JsonValue& params,
                                          const std::string& key) {
  const JsonValue* value = params.IsObject() ? params.Find(key) : nullptr;
  if (value == nullptr || !value->IsString() || value->string_value.empty()) {
    return InvalidArgumentError("missing required string param '" + key + "'");
  }
  return value->string_value;
}

// Accepts a JSON number or a decimal string — concordctl forwards every
// --param as a string, so "pid": "12345" must work as well as "pid": 12345.
StatusOr<std::uint64_t> RequiredU64Param(const JsonValue& params,
                                         const std::string& key) {
  const JsonValue* value = params.IsObject() ? params.Find(key) : nullptr;
  if (value != nullptr && value->IsNumber() && value->number_value >= 0) {
    return static_cast<std::uint64_t>(value->number_value);
  }
  if (value != nullptr && value->IsString() && !value->string_value.empty()) {
    std::uint64_t parsed = 0;
    for (const char c : value->string_value) {
      if (c < '0' || c > '9') {
        return InvalidArgumentError("param '" + key +
                                    "' is not a non-negative integer");
      }
      parsed = parsed * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return parsed;
  }
  return InvalidArgumentError("missing required integer param '" + key + "'");
}

// --- verb bodies -------------------------------------------------------------

StatusOr<std::string> HandleStatus(
    const JsonValue& params,
    const std::function<void(JsonWriter&)>& extra_status) {
  const std::string selector = StringParam(params, "selector", "*");
  const auto locks = Concord::Global().ListLocks(selector);
  JsonWriter json;
  json.BeginObject();
  json.NumberField("pid", static_cast<std::int64_t>(getpid()));
  json.NumberField("now_ns", MonotonicNowNs());
  json.Key("autotune_running").Bool(AutotuneController::Global().running());
  json.Key("locks").BeginArray();
  for (const auto& lock : locks) {
    json.BeginObject();
    json.NumberField("lock_id", lock.lock_id);
    json.Field("name", lock.name);
    json.Field("class", lock.lock_class);
    json.Key("is_rw").Bool(lock.is_rw);
    json.Key("has_policy").Bool(lock.has_policy);
    json.Field("policy", lock.policy_name);
    json.Key("profiling").Bool(lock.profiling);
    json.Key("tracing").Bool(lock.tracing);
    json.EndObject();
  }
  json.EndArray();
  if (extra_status) {
    extra_status(json);
  }
  json.EndObject();
  return json.TakeString();
}

StatusOr<std::string> HandleAutotuneEnable(const JsonValue& params) {
  const std::string selector = StringParam(params, "selector", "*");
  CONCORD_RETURN_IF_ERROR(Concord::Global().EnableAutotune(selector));
  JsonWriter json;
  json.BeginObject();
  json.Key("enabled").Bool(true);
  json.Field("selector", selector);
  json.EndObject();
  return json.TakeString();
}

StatusOr<std::string> HandleAutotuneDisable(const JsonValue&) {
  CONCORD_RETURN_IF_ERROR(Concord::Global().DisableAutotune());
  return std::string("{\"disabled\":true}");
}

StatusOr<std::string> HandleTraceEnable(const JsonValue& params) {
  const std::string selector = StringParam(params, "selector", "*");
  CONCORD_RETURN_IF_ERROR(
      Concord::Global().EnableTracingBySelector(selector));
  JsonWriter json;
  json.BeginObject();
  json.Key("tracing").Bool(true);
  json.Field("selector", selector);
  json.EndObject();
  return json.TakeString();
}

StatusOr<std::string> HandleTraceDisable(const JsonValue& params) {
  const std::string selector = StringParam(params, "selector", "*");
  Concord& concord = Concord::Global();
  const auto ids = concord.Select(selector);
  if (ids.empty()) {
    return NotFoundError("selector '" + selector + "' matches no locks");
  }
  std::uint64_t disabled = 0;
  for (const std::uint64_t id : ids) {
    if (concord.DisableTracing(id).ok()) {
      ++disabled;
    }
  }
  JsonWriter json;
  json.BeginObject();
  json.NumberField("disabled", disabled);
  json.EndObject();
  return json.TakeString();
}

StatusOr<std::string> HandleTraceDump(const JsonValue&) {
  // Already one complete JSON value (Chrome trace-event format).
  return Concord::Global().TraceChromeJson();
}

StatusOr<std::string> HandleMapDump(const JsonValue& params) {
  const std::string selector = StringParam(params, "selector", "*");
  const std::string map_name = StringParam(params, "map", "");
  return Concord::Global().MapDumpJson(selector, map_name);
}

StatusOr<std::string> HandleContainmentStatus(const JsonValue& params) {
  const std::string selector = StringParam(params, "selector", "*");
  const auto locks = Concord::Global().ListLocks(selector);
  ContainmentRegistry& registry = ContainmentRegistry::Global();
  JsonWriter json;
  json.BeginObject();
  json.Key("locks").BeginArray();
  for (const auto& lock : locks) {
    json.BeginObject();
    json.NumberField("lock_id", lock.lock_id);
    json.Field("name", lock.name);
    const auto status = registry.StatusOf(lock.lock_id);
    if (status.has_value()) {
      json.Field("health", PolicyHealthName(status->health));
      json.Field("policy", status->policy_name);
      json.NumberField("fault_count", status->fault_count);
      json.NumberField("quarantine_count", status->quarantine_count);
      json.NumberField("backoff_ns", status->backoff_ns);
    } else {
      json.Field("health", PolicyHealthName(PolicyHealth::kActive));
      json.Field("policy", "");
    }
    json.EndObject();
  }
  json.EndArray();
  // Newest events last, bounded so a long-lived process cannot grow the
  // response without limit.
  constexpr std::size_t kMaxEvents = 64;
  const auto events = registry.events();
  const std::size_t start =
      events.size() > kMaxEvents ? events.size() - kMaxEvents : 0;
  json.Key("events").BeginArray();
  for (std::size_t i = start; i < events.size(); ++i) {
    const ContainmentEvent& event = events[i];
    json.BeginObject();
    json.NumberField("time_ns", event.time_ns);
    json.NumberField("lock_id", event.lock_id);
    json.Field("policy", event.policy_name);
    json.Field("fault", ContainmentFaultName(event.fault));
    json.Field("action", ContainmentActionName(event.action));
    json.Field("detail", event.detail);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

StatusOr<std::string> HandleFaultsArm(const JsonValue& params) {
#if CONCORD_FAULT_INJECTION
  auto directive = RequiredStringParam(params, "directive");
  CONCORD_RETURN_IF_ERROR(directive.status());
  if (!FaultRegistry::Global().ArmFromDirective(*directive)) {
    return InvalidArgumentError("malformed fault directive '" + *directive +
                                "' (want point=always|1inN[:seed]|nthN|firstN"
                                "[@delay_ns])");
  }
  JsonWriter json;
  json.BeginObject();
  json.Field("armed", *directive);
  json.EndObject();
  return json.TakeString();
#else
  (void)params;
  return FailedPreconditionError(
      "fault injection is compiled out of this build "
      "(-DCONCORD_ENABLE_FAULT_INJECTION=ON to enable)");
#endif
}

StatusOr<std::string> HandleFaultsList(const JsonValue&) {
  JsonWriter json;
  json.BeginObject();
#if CONCORD_FAULT_INJECTION
  json.Key("compiled_in").Bool(true);
  json.Key("points").BeginArray();
  for (const auto& point : FaultRegistry::Global().ListPoints()) {
    json.BeginObject();
    json.Field("name", point.name);
    json.Field("description", point.description);
    json.Key("armed").Bool(point.armed);
    if (point.armed) {
      json.Field("directive", point.directive);
      json.NumberField("evaluations", point.evaluations);
      json.NumberField("fires", point.fires);
    }
    json.EndObject();
  }
  json.EndArray();
#else
  json.Key("compiled_in").Bool(false);
  json.Key("points").BeginArray().EndArray();
#endif
  json.EndObject();
  return json.TakeString();
}

StatusOr<std::string> HandlePolicyAttach(const JsonValue& params) {
  auto selector = RequiredStringParam(params, "selector");
  CONCORD_RETURN_IF_ERROR(selector.status());

  std::string source = StringParam(params, "source", "");
  std::string name = StringParam(params, "name", "");
  const std::string file = StringParam(params, "file", "");
  if (source.empty() == file.empty()) {
    return InvalidArgumentError(
        "exactly one of 'file' (server-side .casm path) or 'source' (inline "
        "assembly) is required");
  }
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      return NotFoundError("cannot open policy file '" + file + "'");
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
    if (name.empty()) {
      const std::size_t slash = file.find_last_of('/');
      name = slash == std::string::npos ? file : file.substr(slash + 1);
      const std::size_t dot = name.rfind(".casm");
      if (dot != std::string::npos) {
        name = name.substr(0, dot);
      }
    }
  }
  if (name.empty()) {
    name = "rpc_policy";
  }

  // An explicit 'hook' or 'budget_ns' param overrides the source's
  // directive. The loader's gate runs before any lock sees the spec, and its
  // report hands the caller the certified bound.
  std::optional<std::uint64_t> budget_ns;
  const JsonValue* budget_param = params.Find("budget_ns");
  if (budget_param != nullptr) {
    if (!budget_param->IsNumber() || budget_param->number_value < 0) {
      return InvalidArgumentError("'budget_ns' must be a non-negative number");
    }
    budget_ns = static_cast<std::uint64_t>(budget_param->number_value);
  }
  AdmissionReport report;
  StatusOr<PolicySpec> spec = LoadPolicy(
      name, source, StringParam(params, "hook", ""), budget_ns, &report);
  CONCORD_RETURN_IF_ERROR(spec.status());
  CONCORD_RETURN_IF_ERROR(
      Concord::Global().AttachBySelector(*selector, *spec));

  JsonWriter json;
  json.BeginObject();
  json.Field("attached", name);
  json.Field("hook", report.hook);
  json.Field("selector", *selector);
  json.NumberField("certified_wcet_ns", report.cert.wcet.certified_ns);
  if (report.budget_ns != 0) {
    json.NumberField("budget_ns", report.budget_ns);
  }
  json.NumberField(
      "locks",
      static_cast<std::uint64_t>(Concord::Global().Select(*selector).size()));
  json.EndObject();
  return json.TakeString();
}

StatusOr<std::string> HandlePolicyDetach(const JsonValue& params) {
  auto selector = RequiredStringParam(params, "selector");
  CONCORD_RETURN_IF_ERROR(selector.status());
  Concord& concord = Concord::Global();
  const auto locks = concord.ListLocks(*selector);
  if (locks.empty()) {
    return NotFoundError("selector '" + *selector + "' matches no locks");
  }
  std::uint64_t detached = 0;
  for (const auto& lock : locks) {
    if (lock.has_policy && concord.Detach(lock.lock_id).ok()) {
      ++detached;
    }
  }
  JsonWriter json;
  json.BeginObject();
  json.NumberField("detached", detached);
  json.NumberField("matched", static_cast<std::uint64_t>(locks.size()));
  json.EndObject();
  return json.TakeString();
}

// --- fleet agent verbs -------------------------------------------------------
//
// The multi-process agent (src/concord/agent/fleet.h) runs an RpcServer with
// this same dispatcher; workers call agent.register/agent.leave against it.
// Registration is deliberately cheap and synchronous-side-effect-free: the
// worker is recorded, and the agent's next Tick maps the segment and pushes
// incumbent policies. Pushing from here would call back into the worker's
// socket while the worker is still blocked in this very RPC.

StatusOr<std::string> HandleAgentRegister(const JsonValue& params) {
  auto pid = RequiredU64Param(params, "pid");
  CONCORD_RETURN_IF_ERROR(pid.status());
  auto shm = RequiredStringParam(params, "shm");
  CONCORD_RETURN_IF_ERROR(shm.status());
  auto socket = RequiredStringParam(params, "socket");
  CONCORD_RETURN_IF_ERROR(socket.status());
  CONCORD_RETURN_IF_ERROR(
      FleetAgent::Global().RegisterWorker(*pid, *shm, *socket));
  JsonWriter json;
  json.BeginObject();
  json.NumberField("pid", *pid);
  json.NumberField(
      "workers", static_cast<std::uint64_t>(FleetAgent::Global().WorkerCount()));
  json.EndObject();
  return json.TakeString();
}

StatusOr<std::string> HandleAgentLeave(const JsonValue& params) {
  auto pid = RequiredU64Param(params, "pid");
  CONCORD_RETURN_IF_ERROR(pid.status());
  CONCORD_RETURN_IF_ERROR(FleetAgent::Global().LeaveWorker(*pid));
  JsonWriter json;
  json.BeginObject();
  json.NumberField("pid", *pid);
  json.NumberField(
      "workers", static_cast<std::uint64_t>(FleetAgent::Global().WorkerCount()));
  json.EndObject();
  return json.TakeString();
}

}  // namespace

RpcDispatcher::RpcDispatcher() {
  auto add = [this](std::string name, bool read_only,
                    std::function<StatusOr<std::string>(const JsonValue&)> fn) {
    verbs_.push_back({std::move(name), read_only, std::move(fn)});
  };
  add("status", true,
      [this](const JsonValue& params) {
        return HandleStatus(params, extra_status_);
      });
  add("autotune.enable", false, HandleAutotuneEnable);
  add("autotune.disable", false, HandleAutotuneDisable);
  add("autotune.status", true, [](const JsonValue&) -> StatusOr<std::string> {
    return Concord::Global().AutotuneStatusJson();
  });
  add("trace.enable", false, HandleTraceEnable);
  add("trace.disable", false, HandleTraceDisable);
  add("trace.dump", true, HandleTraceDump);
  add("map.dump", true, HandleMapDump);
  add("containment.status", true, HandleContainmentStatus);
  add("faults.arm", false, HandleFaultsArm);
  add("faults.list", true, HandleFaultsList);
  add("policy.attach", false, HandlePolicyAttach);
  add("policy.detach", false, HandlePolicyDetach);
  add("agent.register", false, HandleAgentRegister);
  add("agent.leave", false, HandleAgentLeave);
  add("agent.status", true, [](const JsonValue&) -> StatusOr<std::string> {
    return FleetAgent::Global().StatusJson();
  });
}

const RpcDispatcher::Verb* RpcDispatcher::Find(const std::string& method) const {
  for (const Verb& verb : verbs_) {
    if (verb.name == method) {
      return &verb;
    }
  }
  return nullptr;
}

bool RpcDispatcher::Has(const std::string& method) const {
  return Find(method) != nullptr;
}

bool RpcDispatcher::IsReadOnly(const std::string& method) const {
  const Verb* verb = Find(method);
  return verb != nullptr && verb->read_only;
}

std::vector<std::string> RpcDispatcher::Methods() const {
  std::vector<std::string> names;
  names.reserve(verbs_.size());
  for (const Verb& verb : verbs_) {
    names.push_back(verb.name);
  }
  return names;
}

StatusOr<std::string> RpcDispatcher::Dispatch(const std::string& method,
                                              const JsonValue& params) const {
  const Verb* verb = Find(method);
  if (verb == nullptr) {
    return NotFoundError("unknown method '" + method + "'");
  }
  if (CONCORD_FAULT_POINT("rpc.handler")) {
    return InternalError("injected rpc.handler fault");
  }
  return verb->handler(params);
}

void RpcDispatcher::SetExtraStatus(std::function<void(JsonWriter&)> extra) {
  extra_status_ = std::move(extra);
}

}  // namespace concord
