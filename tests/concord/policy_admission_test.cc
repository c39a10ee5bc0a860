// One admission path: every surface that turns policy text into an attached
// spec (the loader concord_check uses, the policy.attach RPC verb, the fleet
// agent's candidates and the autotune directory seeder) gives the same
// verdict, code-built specs meet the same lint at Concord::Attach, and the
// shipped corpus meets the certification contract CI reads from the JSON
// report.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/json.h"
#include "src/bpf/assembler.h"
#include "src/concord/agent/fleet.h"
#include "src/concord/autotune/candidates.h"
#include "src/concord/concord.h"
#include "src/concord/policy_source.h"
#include "src/concord/rpc/dispatch.h"
#include "src/sync/shfllock.h"

namespace concord {
namespace {

namespace fs = std::filesystem;

struct Input {
  std::string name;
  std::string source;
  bool admissible = false;
};

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The `.casm` files directly under `dir`, sorted by name.
std::vector<fs::path> CasmFiles(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".casm") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// A skip_shuffle policy that reads map 0 without declaring it: the loader
// binds the legacy scratch array there.
constexpr char kLegacyMapSource[] =
    "; hook: skip_shuffle\n"
    "  stw   [r10-4], 0\n"
    "  mov   r1, 0\n"
    "  mov   r2, r10\n"
    "  add   r2, -4\n"
    "  call  map_lookup_elem\n"
    "  jeq   r0, 0, out\n"
    "  ldxdw r2, [r0+0]\n"
    "  jeq   r2, 0, out\n"
    "  mov   r0, 1\n"
    "  exit\n"
    "out:\n"
    "  mov   r0, 0\n"
    "  exit\n";

std::vector<Input> Corpus() {
  std::vector<Input> inputs;
  for (const fs::path& file : CasmFiles(CONCORD_POLICY_DIR)) {
    inputs.push_back({file.stem().string(), ReadFile(file), true});
  }
  for (const fs::path& file :
       CasmFiles(fs::path(CONCORD_POLICY_DIR) / "rejected")) {
    inputs.push_back({file.stem().string(), ReadFile(file), false});
  }
  inputs.push_back({"legacy_map_skip_shuffle", kLegacyMapSource, true});
  return inputs;
}

class PolicyAdmissionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lock_id_ = Concord::Global().RegisterShflLock(lock_, "admission_lock",
                                                  "admission");
    FleetAgent::Global().ResetForTest();
  }
  void TearDown() override {
    FleetAgent::Global().ResetForTest();
    (void)Concord::Global().Unregister(lock_id_);
  }

  ShflLock lock_;
  std::uint64_t lock_id_ = 0;
};

TEST_F(PolicyAdmissionTest, EveryPathGivesTheSameVerdict) {
  const std::vector<Input> inputs = Corpus();
  ASSERT_GE(inputs.size(), 2u);
  const fs::path dir = fs::temp_directory_path() /
                       ("concord_admission_" + std::to_string(::getpid()));
  RpcDispatcher dispatcher;
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);

    const Status loaded = LoadPolicy(input.name, input.source).status();

    JsonWriter params;
    params.BeginObject();
    params.Field("selector", "class:admission");
    params.Field("name", input.name);
    params.Field("source", input.source);
    params.EndObject();
    auto parsed = ParseJson(params.str());
    ASSERT_TRUE(parsed.ok());
    const Status attached =
        dispatcher.Dispatch("policy.attach", *parsed).status();
    if (attached.ok()) {
      EXPECT_EQ(Concord::Global().AttachedPolicyName(lock_id_), input.name);
      ASSERT_TRUE(Concord::Global().Detach(lock_id_).ok());
    }

    const Status candidate = FleetAgent::Global().registry().RegisterSource(
        input.name, ContentionRegime::kModerate, input.source);

    // The seeder maps a regime from the filename, so the source is copied
    // under a name it accepts.
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::ofstream(dir / "admission_batch.casm") << input.source;
    PolicyCandidateRegistry registry;
    const int seeded = registry.SeedFromPolicyDir(dir.string());

    EXPECT_EQ(loaded.ok(), input.admissible) << loaded.ToString();
    EXPECT_EQ(attached.ok(), loaded.ok()) << attached.ToString();
    EXPECT_EQ(candidate.ok(), loaded.ok()) << candidate.ToString();
    EXPECT_EQ(seeded, loaded.ok() ? 1 : 0);
    EXPECT_EQ(attached.code(), loaded.code()) << attached.ToString();
    EXPECT_EQ(candidate.code(), loaded.code()) << candidate.ToString();
  }
  fs::remove_all(dir);
}

TEST_F(PolicyAdmissionTest, AttachLintsCodeBuiltSpecs) {
  // Verifies and certifies, but a cmp_node decision must be 0 or 1.
  auto program = AssembleProgram("returns_two", "mov r0, 2\nexit\n",
                                 &DescriptorFor(HookKind::kCmpNode));
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  PolicySpec spec;
  spec.name = "returns_two";
  ASSERT_TRUE(spec.AddProgram(HookKind::kCmpNode, std::move(*program)).ok());

  const Status status = Concord::Global().Attach(lock_id_, std::move(spec));
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied) << status.ToString();
  EXPECT_NE(status.message().find("return-range"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(Concord::Global().AttachedPolicyName(lock_id_).empty());
}

// The certification contract over the shipped corpus, read back from the
// JSON report concord_check --json writes: every file admitted and
// certified, the certified bound consistent and within any budget, no race
// findings, the cost and race facts present, and the context fields each
// program reads (what decides the lock's timing).
TEST(PolicyCorpusTest, ShippedPoliciesCertify) {
  // What each shipped program reads, and the verifier's writes_map and
  // map_pure facts.
  struct Facts {
    std::vector<std::string> reads;
    bool writes_map;
    bool map_pure;
  };
  const std::map<std::string, Facts> kFacts = {
      {"batch_skip_shuffle", {{}, true, false}},
      {"log2_backoff_skip_shuffle", {{"shuffler_wait_ns"}, false, true}},
      {"numa_cmp_node", {{"shuffler_socket", "curr_socket"}, false, true}},
  };
  JsonWriter json;
  json.BeginArray();
  for (const fs::path& file : CasmFiles(CONCORD_POLICY_DIR)) {
    AdmissionReport report;
    (void)LoadPolicy(file.stem().string(), ReadFile(file), "", std::nullopt,
                     &report);
    WriteAdmissionJson(json, file.string(), report);
  }
  json.EndArray();
  auto doc = ParseJson(json.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->IsArray());
  ASSERT_FALSE(doc->array.empty()) << "no shipped policies found";

  for (const JsonValue& entry : doc->array) {
    const JsonValue* file = entry.Find("file");
    ASSERT_TRUE(file != nullptr && file->IsString());
    SCOPED_TRACE(file->string_value);
    const JsonValue* hook = entry.Find("hook");
    EXPECT_TRUE(hook != nullptr && hook->IsString());
    const JsonValue* ok = entry.Find("ok");
    ASSERT_TRUE(ok != nullptr && ok->type == JsonValue::Type::kBool);
    EXPECT_TRUE(ok->bool_value) << json.str();
    const JsonValue* certified = entry.Find("certified");
    ASSERT_TRUE(certified != nullptr &&
                certified->type == JsonValue::Type::kBool);
    EXPECT_TRUE(certified->bool_value);

    const JsonValue* cost = entry.Find("cost");
    ASSERT_TRUE(cost != nullptr && cost->IsObject());
    for (const char* member :
         {"interp_ns", "jit_ns", "certified_ns", "max_insns", "budget_ns"}) {
      const JsonValue* value = cost->Find(member);
      ASSERT_TRUE(value != nullptr && value->IsNumber()) << member;
    }
    const double interp = cost->Find("interp_ns")->number_value;
    const double jit = cost->Find("jit_ns")->number_value;
    const double certified_ns = cost->Find("certified_ns")->number_value;
    const double budget = cost->Find("budget_ns")->number_value;
    EXPECT_EQ(certified_ns, std::max(interp, jit));
    EXPECT_GT(certified_ns, 0.0);
    if (budget != 0.0) {
      EXPECT_LE(certified_ns, budget);
    }

    const JsonValue* analysis = entry.Find("analysis");
    ASSERT_TRUE(analysis != nullptr && analysis->IsObject());
    const JsonValue* reads = analysis->Find("reads");
    ASSERT_TRUE(reads != nullptr && reads->IsArray());
    std::vector<std::string> read_names;
    for (const JsonValue& field : reads->array) {
      ASSERT_TRUE(field.IsString());
      read_names.push_back(field.string_value);
    }
    const auto expected =
        kFacts.find(fs::path(file->string_value).stem().string());
    ASSERT_NE(expected, kFacts.end()) << "no pinned facts for this file";
    EXPECT_EQ(read_names, expected->second.reads);
    for (const auto& [member, value] :
         {std::pair<const char*, bool>{"writes_map",
                                       expected->second.writes_map},
          {"map_pure", expected->second.map_pure}}) {
      const JsonValue* fact = analysis->Find(member);
      ASSERT_TRUE(fact != nullptr && fact->type == JsonValue::Type::kBool)
          << member;
      EXPECT_EQ(fact->bool_value, value) << member;
    }

    const JsonValue* races = entry.Find("races");
    ASSERT_TRUE(races != nullptr && races->IsObject());
    const JsonValue* maps = races->Find("maps");
    const JsonValue* findings = races->Find("findings");
    ASSERT_TRUE(maps != nullptr && maps->IsArray());
    ASSERT_TRUE(findings != nullptr && findings->IsArray());
    EXPECT_TRUE(findings->array.empty());
  }
}

}  // namespace
}  // namespace concord
