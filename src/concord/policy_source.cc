#include "src/concord/policy_source.h"

#include <charconv>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "src/bpf/assembler.h"
#include "src/bpf/maps.h"

namespace concord {
namespace {

// `name` as a hook; otherwise kInvalidArgument, prefixed with `where` and
// listing the valid hooks so a typo is a one-look fix.
StatusOr<HookKind> HookNamed(const std::string& name,
                             const std::string& where) {
  HookKind kind;
  if (ParseHookKindName(name, &kind)) {
    return kind;
  }
  std::string message =
      where +
      (name.empty() ? "malformed `; hook:` directive (missing hook name)"
                    : "unknown hook '" + name + "'") +
      "; valid hooks:";
  for (int i = 0; i < kNumHookKinds; ++i) {
    message += std::string(" ") + HookKindName(static_cast<HookKind>(i));
  }
  return InvalidArgumentError(message);
}

}  // namespace

bool FindDirective(const std::string& source, const char* key,
                   SourceDirective* out) {
  std::istringstream lines(source);
  std::string line;
  int line_no = 0;
  const std::size_t key_len = std::string(key).size();
  while (std::getline(lines, line)) {
    ++line_no;
    const std::size_t semi = line.find(';');
    if (semi == std::string::npos) {
      continue;
    }
    std::size_t pos = line.find(key, semi);
    if (pos == std::string::npos) {
      continue;
    }
    pos += key_len;
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
      ++pos;
    }
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
           line[end] != '\r') {
      ++end;
    }
    out->value = line.substr(pos, end - pos);
    out->line = line_no;
    return true;
  }
  return false;
}

StatusOr<HookKind> ResolveHookDirective(const std::string& source, int* line) {
  SourceDirective directive;
  if (!FindDirective(source, "hook:", &directive)) {
    return NotFoundError("no `; hook: <name>` directive in source");
  }
  if (line != nullptr) {
    *line = directive.line;
  }
  return HookNamed(directive.value,
                   "line " + std::to_string(directive.line) + ": ");
}

StatusOr<std::uint64_t> ResolveBudgetDirective(const std::string& source) {
  SourceDirective directive;
  if (!FindDirective(source, "budget_ns:", &directive)) {
    return NotFoundError("no `; budget_ns: <N>` directive in source");
  }
  std::uint64_t value = 0;
  const char* end = directive.value.data() + directive.value.size();
  const auto [parsed, error] =
      std::from_chars(directive.value.data(), end, value);
  if (directive.value.empty() || error != std::errc() || parsed != end) {
    return InvalidArgumentError(
        "line " + std::to_string(directive.line) +
        ": malformed `; budget_ns:` directive (want a positive decimal "
        "nanosecond count)");
  }
  return value;
}

StatusOr<PolicySpec> LoadPolicy(const std::string& name,
                                const std::string& source,
                                const std::string& hook,
                                std::optional<std::uint64_t> budget_ns,
                                AdmissionReport* report) {
  AdmissionReport local;
  AdmissionReport& r = report != nullptr ? *report : local;
  r = AdmissionReport();
  const auto fail = [&r](Status status) {
    r.error = status.ToString();
    return status;
  };

  r.stage = "hook";
  r.hook = hook;
  StatusOr<HookKind> kind = hook.empty()
                                ? ResolveHookDirective(source, &r.hook_line)
                                : HookNamed(hook, "");
  if (!kind.ok()) {
    return fail(kind.status().code() == StatusCode::kNotFound
                    ? InvalidArgumentError(
                          "no `; hook: <name>` directive and no hook given")
                    : kind.status());
  }
  r.hook = HookKindName(*kind);
  if (budget_ns.has_value()) {
    r.budget_ns = *budget_ns;
  } else {
    StatusOr<std::uint64_t> directive = ResolveBudgetDirective(source);
    if (directive.ok()) {
      r.budget_ns = *directive;
    } else if (directive.status().code() != StatusCode::kNotFound) {
      return fail(directive.status());
    }
  }

  PolicySpec spec;
  spec.name = name;
  spec.hook_budget_ns = r.budget_ns;
  std::vector<BpfMap*> caller_maps;
  if (!SourceDeclaresMaps(source)) {
    auto scratch = std::make_shared<ArrayMap>("scratch", 8, 8);
    caller_maps.push_back(scratch.get());
    spec.maps.push_back(std::move(scratch));
  }
  r.stage = "assemble";
  StatusOr<Program> program = AssembleProgram(
      name, source, &DescriptorFor(*kind), std::move(caller_maps), &spec.maps);
  if (!program.ok()) {
    return fail(program.status());
  }
  CONCORD_RETURN_IF_ERROR(spec.AddProgram(*kind, std::move(*program)));
  CONCORD_RETURN_IF_ERROR(spec.VerifyAll(&r));
  return spec;
}

void WriteAdmissionJson(JsonWriter& json, const std::string& file,
                        const AdmissionReport& r) {
  json.BeginObject();
  json.Field("file", file);
  json.Field("hook", r.hook);
  if (r.hook_line != 0) {
    json.NumberField("hook_line", static_cast<std::int64_t>(r.hook_line));
  }
  json.Key("ok").Bool(r.ok());
  if (!r.ok()) {
    json.Field("stage", r.stage);
    json.Field("error", r.error);
  }
  json.Key("findings").BeginArray();
  for (const auto& finding : r.lint.findings) {
    json.BeginObject();
    json.Field("rule", finding.rule);
    json.Field("message", finding.message);
    json.EndObject();
  }
  json.EndArray();
  // Verifier and certification facts for every program that verified: "lint"
  // and "certify" failures carry the numbers that drove the rejection.
  if (!r.ok() && r.stage != "lint" && r.stage != "certify") {
    json.EndObject();
    return;
  }
  json.Key("analysis").BeginObject();
  json.NumberField("insns", static_cast<std::uint64_t>(r.insns));
  json.NumberField("states",
                   static_cast<std::uint64_t>(r.analysis.states_processed));
  json.Key("loops").BeginArray();
  for (const auto& loop : r.analysis.loops) {
    json.BeginObject();
    json.NumberField("back_edge_pc",
                     static_cast<std::uint64_t>(loop.back_edge_pc));
    json.NumberField("header_pc", static_cast<std::uint64_t>(loop.header_pc));
    json.NumberField("max_trips", loop.max_trips);
    json.EndObject();
  }
  json.EndArray();
  json.Key("helpers").BeginArray();
  for (std::uint32_t id : r.analysis.helpers_called) {
    json.Number(static_cast<std::uint64_t>(id));
  }
  json.EndArray();
  json.Key("writes_map").Bool(r.writes_map);
  json.Key("map_pure").Bool(r.map_pure);
  json.Key("writes_ctx").Bool(r.analysis.writes_ctx);
  json.Key("reads").BeginArray();
  for (const std::string& field : r.reads) {
    json.String(field);
  }
  json.EndArray();
  if (r.analysis.has_exit) {
    json.Key("r0").BeginObject();
    json.NumberField("umin", r.analysis.r0_exit.umin);
    json.NumberField("umax", r.analysis.r0_exit.umax);
    json.EndObject();
  }
  json.EndObject();

  json.Key("certified").Bool(r.cert.certified);
  json.Key("cost").BeginObject();
  json.NumberField("interp_ns", r.cert.wcet.interp_ns);
  json.NumberField("jit_ns", r.cert.wcet.jit_ns);
  json.NumberField("certified_ns", r.cert.wcet.certified_ns);
  json.NumberField("max_insns", r.cert.wcet.max_insns);
  json.NumberField("budget_ns", r.budget_ns);
  json.EndObject();
  json.Key("races").BeginObject();
  json.Key("maps").BeginArray();
  for (const MapAccessClass cls : r.cert.races.map_classes) {
    json.String(MapAccessClassName(cls));
  }
  json.EndArray();
  json.Key("findings").BeginArray();
  for (const auto& finding : r.cert.races.findings) {
    json.BeginObject();
    json.Field("rule", finding.rule);
    json.NumberField("pc", static_cast<std::uint64_t>(finding.pc));
    json.NumberField("map_index",
                     static_cast<std::uint64_t>(finding.map_index));
    json.Field("message", finding.message);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.EndObject();
}

}  // namespace concord
