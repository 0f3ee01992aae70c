// src/sim/scenario: the JSON <-> SimConfig mapping and the golden-verify
// machinery behind `sbsim`. Pins (1) equivalence: a scenario file and a
// hand-built SimConfig produce byte-identical canonical JSON -- so every
// knob travels, none silently defaults; (2) strictness: unknown keys,
// typos and malformed values are located errors; (3) the golden contract:
// a small scenario fingerprints identically at threads 1/2/8 and
// verify_scenario() both passes an honest golden and diagnoses a doctored
// one.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/scenario/runner.hpp"
#include "sim/scenario/scenario.hpp"

namespace sbp::sim {
namespace {

namespace json = util::json;

std::optional<Scenario> parse_text(const std::string& text,
                                   std::string* error) {
  const json::ParseResult parsed = json::parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  if (!parsed.ok()) return std::nullopt;
  return parse_scenario(*parsed.value, error);
}

Scenario parse_ok(const std::string& text) {
  std::string error;
  auto scenario = parse_text(text, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  return scenario.value_or(Scenario{});
}

std::string parse_fail(const std::string& text) {
  std::string error;
  const auto scenario = parse_text(text, &error);
  EXPECT_FALSE(scenario.has_value()) << "accepted: " << text;
  EXPECT_FALSE(error.empty());
  return error;
}

/// A scenario exercising every config block, as JSON...
constexpr const char* kFullScenario = R"({
  "name": "equivalence",
  "description": "exercises every block",
  "config": {
    "num_users": 321,
    "ticks": 17,
    "num_shards": 4,
    "num_threads": 2,
    "seed": 99,
    "provider": "yandex",
    "protocol": "v4",
    "mix_fraction": 0.25,
    "mix_protocol": "v1",
    "store_kind": "bloom",
    "bloom_bits": 65536,
    "full_hash_ttl": 30,
    "url_cache_entries": 1024,
    "site_cache_entries": 64,
    "corpus": {
      "num_hosts": 500,
      "seed": 3,
      "alpha": 1.5,
      "max_pages": 100,
      "single_page_fraction": 0.61,
      "min_pages": 2,
      "subdomain_probability": 0.3,
      "query_probability": 0.2,
      "directory_page_probability": 0.1
    },
    "traffic": {
      "site_popularity_alpha": 2.1,
      "revisit_probability": 0.4,
      "revisit_window": 16,
      "session_start_probability": 0.05,
      "session_continue_probability": 0.8,
      "lookups_per_active_tick": 2,
      "target_urls": ["http://victim.example/"],
      "interested_fraction": 0.02,
      "target_visit_probability": 0.5
    },
    "blacklist": {
      "lists": ["ydx-malware-shavar", "ydx-phish-shavar"],
      "page_fraction": 0.03,
      "site_fraction": 0.01,
      "max_entries": 256,
      "orphan_prefixes": 8
    },
    "churn": {
      "epoch_ticks": 5,
      "add_rate": 0.04,
      "remove_rate": 0.02,
      "max_epoch_adds": 128,
      "minimum_wait_ticks": 10,
      "injections": [
        {"epoch": 2, "list": "ydx-phish-shavar", "expression": "victim.example/"}
      ]
    },
    "mitigation": {
      "dummy_requests": true,
      "dummies_per_prefix": 3
    }
  }
})";

/// ...and the same configuration hand-built against src/sim/config.hpp.
SimConfig hand_built_config() {
  SimConfig config;
  config.num_users = 321;
  config.ticks = 17;
  config.num_shards = 4;
  config.num_threads = 2;
  config.seed = 99;
  config.provider = sb::Provider::kYandex;
  config.protocol = sb::ProtocolVersion::kV4Sliced;
  config.mix_fraction = 0.25;
  config.mix_protocol = sb::ProtocolVersion::kV1Lookup;
  config.store_kind = storage::StoreKind::kBloom;
  config.bloom_bits = 65536;
  config.full_hash_ttl = 30;
  config.url_cache_entries = 1024;
  config.site_cache_entries = 64;
  config.corpus.num_hosts = 500;
  config.corpus.seed = 3;
  config.corpus.alpha = 1.5;
  config.corpus.max_pages = 100;
  config.corpus.single_page_fraction = 0.61;
  config.corpus.min_pages = 2;
  config.corpus.subdomain_probability = 0.3;
  config.corpus.query_probability = 0.2;
  config.corpus.directory_page_probability = 0.1;
  config.traffic.site_popularity_alpha = 2.1;
  config.traffic.revisit_probability = 0.4;
  config.traffic.revisit_window = 16;
  config.traffic.session_start_probability = 0.05;
  config.traffic.session_continue_probability = 0.8;
  config.traffic.lookups_per_active_tick = 2;
  config.traffic.target_urls = {"http://victim.example/"};
  config.traffic.interested_fraction = 0.02;
  config.traffic.target_visit_probability = 0.5;
  config.blacklist.lists = {"ydx-malware-shavar", "ydx-phish-shavar"};
  config.blacklist.page_fraction = 0.03;
  config.blacklist.site_fraction = 0.01;
  config.blacklist.max_entries = 256;
  config.blacklist.orphan_prefixes = 8;
  config.churn.epoch_ticks = 5;
  config.churn.add_rate = 0.04;
  config.churn.remove_rate = 0.02;
  config.churn.max_epoch_adds = 128;
  config.churn.minimum_wait_ticks = 10;
  config.churn.injections = {{2, "ydx-phish-shavar", "victim.example/"}};
  config.mitigation.dummy_requests = true;
  config.mitigation.dummies_per_prefix = 3;
  return config;
}

TEST(ScenarioParse, JsonEqualsHandBuiltConfig) {
  const Scenario scenario = parse_ok(kFullScenario);
  // Canonical JSON is the equality witness: every knob explicit.
  EXPECT_EQ(json::dump(config_to_json(scenario.config)),
            json::dump(config_to_json(hand_built_config())));
}

TEST(ScenarioParse, DefaultsMatchSimConfigDefaults) {
  const Scenario minimal =
      parse_ok(R"({"name": "m", "config": {"num_users": 5}})");
  SimConfig expected;
  expected.num_users = 5;
  EXPECT_EQ(json::dump(config_to_json(minimal.config)),
            json::dump(config_to_json(expected)));
}

TEST(ScenarioParse, ScenarioRoundTripsThroughCanonicalForm) {
  Scenario scenario = parse_ok(kFullScenario);
  scenario.golden = ScenarioGolden{0xdeadbeefcafef00dULL, 1, 2, 3, 4, 5, 6};
  const std::string canonical = json::dump(scenario_to_json(scenario));
  const Scenario reparsed = parse_ok(canonical);
  EXPECT_EQ(json::dump(scenario_to_json(reparsed)), canonical);
  ASSERT_TRUE(reparsed.golden.has_value());
  EXPECT_EQ(reparsed.golden->fingerprint, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(reparsed.golden->wire_bytes_down, 6u);
}

TEST(ScenarioParse, U64AboveInt64RangeRoundTripsAsHex) {
  // Serialization must not squeeze > 2^63 u64s through a lossy double:
  // they travel as "0x..." hex strings and parse back exactly.
  Scenario scenario;
  scenario.name = "big-seed";
  scenario.config.seed = 0xFFFFFFFFFFFFFFFFULL;
  const std::string canonical = json::dump(scenario_to_json(scenario));
  const Scenario reparsed = parse_ok(canonical);
  EXPECT_EQ(reparsed.config.seed, 0xFFFFFFFFFFFFFFFFULL);

  // The hex spelling is accepted directly too.
  const Scenario hex = parse_ok(
      R"({"name": "h", "config": {"seed": "0xdeadbeefdeadbeef"}})");
  EXPECT_EQ(hex.config.seed, 0xdeadbeefdeadbeefULL);
  parse_fail(R"({"name": "h", "config": {"seed": "xyz"}})");
}

TEST(ScenarioParse, UnknownKeysAreLocatedErrors) {
  EXPECT_NE(parse_fail(R"({"name": "x", "config": {"num_userz": 5}})")
                .find("num_userz"),
            std::string::npos);
  EXPECT_NE(parse_fail(R"({"name": "x", "bogus": 1})").find("bogus"),
            std::string::npos);
  EXPECT_NE(parse_fail(
                R"({"name": "x", "config": {"churn": {"epoch_tick": 5}}})")
                .find("config.churn"),
            std::string::npos);
  EXPECT_NE(parse_fail(
                R"({"name": "x", "report": {"kanonimity": true}})")
                .find("kanonimity"),
            std::string::npos);
}

TEST(ScenarioParse, MalformedValuesAreRejected) {
  parse_fail(R"({"config": {}})");  // missing name
  parse_fail(R"({"name": "x", "config": {"num_users": 0}})");
  parse_fail(R"({"name": "x", "config": {"num_users": -3}})");
  parse_fail(R"({"name": "x", "config": {"num_users": "many"}})");
  parse_fail(R"({"name": "x", "config": {"provider": "bing"}})");
  parse_fail(R"({"name": "x", "config": {"protocol": "v2"}})");
  parse_fail(R"({"name": "x", "config": {"store_kind": "trie"}})");
  parse_fail(R"({"name": "x", "config": {"mix_fraction": 1.5}})");
  parse_fail(R"({"name": "x", "config": {"blacklist": {"lists": []}}})");
  parse_fail(
      R"({"name": "x", "config": {"churn": {"injections": [{}]}}})");
  parse_fail(R"({"name": "x", "golden": {"fingerprint": "xyz"}})");
  parse_fail(R"({"name": "x", "config": {"traffic": {"target_urls": [1]}}})");
  // PowerLawSampler needs an exponent > 1, like site_popularity_alpha.
  EXPECT_NE(parse_fail(R"({"name": "x", "config": {"corpus": {"alpha": 1.0}}})")
                .find("config.corpus.alpha"),
            std::string::npos);
  // An injection into a list no client subscribes to is never observable.
  EXPECT_NE(parse_fail(R"({"name": "x", "config": {"churn": {"injections": [
                {"epoch": 1, "list": "nope", "expression": "a.example/"}]}}})")
                .find("config.churn.injections[0].list"),
            std::string::npos);
}

// --------------------------- golden contract ------------------------------

/// Small enough for a unit test, rich enough to cross every phase: churn,
/// a mixed fleet and an injection.
Scenario small_scenario() {
  Scenario scenario = parse_ok(R"({
    "name": "unit",
    "config": {
      "num_users": 96,
      "ticks": 30,
      "num_shards": 8,
      "seed": 11,
      "mix_fraction": 0.5,
      "mix_protocol": "v4",
      "corpus": {"num_hosts": 300, "max_pages": 50},
      "blacklist": {"page_fraction": 0.05, "site_fraction": 0.01,
                     "max_entries": 256},
      "churn": {"epoch_ticks": 10,
                 "injections": [{"epoch": 1, "expression": "victim.example/"}]}
    }
  })");
  return scenario;
}

TEST(ScenarioGoldenContract, FingerprintStableAcrossThreads128) {
  const Scenario scenario = small_scenario();
  const ScenarioRunResult base = run_scenario(scenario, std::size_t{1});
  EXPECT_GT(base.metrics.lookups, 0u);
  EXPECT_GT(base.log_entries, 0u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const ScenarioRunResult run = run_scenario(scenario, threads);
    EXPECT_EQ(run.log_fingerprint, base.log_fingerprint) << threads;
    EXPECT_EQ(run.log_entries, base.log_entries) << threads;
    EXPECT_EQ(run.log_prefixes, base.log_prefixes) << threads;
    EXPECT_EQ(run.wire.bytes_up, base.wire.bytes_up) << threads;
    EXPECT_EQ(run.wire.bytes_down, base.wire.bytes_down) << threads;
    EXPECT_EQ(run.metrics.lookups, base.metrics.lookups) << threads;
  }
}

TEST(ScenarioGoldenContract, VerifyPassesHonestGoldenAndCatchesDrift) {
  Scenario scenario = small_scenario();

  // No golden: verify must fail, asking for a bless.
  const VerifyResult unblessed = verify_scenario(scenario, {1});
  EXPECT_FALSE(unblessed.passed);

  // Honest golden (the 1-thread run's observables): passes at 1/2/8.
  scenario.golden = run_scenario(scenario, std::size_t{1}).golden();
  const VerifyResult honest = verify_scenario(scenario, {1, 2, 8});
  EXPECT_TRUE(honest.passed) << (honest.failures.empty()
                                     ? ""
                                     : honest.failures.front());
  EXPECT_EQ(honest.runs.size(), 3u);

  // Doctored golden: verify must fail and name the drifted field.
  scenario.golden->fingerprint ^= 1;
  const VerifyResult doctored = verify_scenario(scenario, {1});
  EXPECT_FALSE(doctored.passed);
  ASSERT_FALSE(doctored.failures.empty());
  EXPECT_NE(doctored.failures.front().find("fingerprint"),
            std::string::npos);
}

/// True iff some diff entry reports `field` ("field got != want").
bool names_field(const std::vector<std::string>& diffs,
                 const std::string& field) {
  return std::any_of(diffs.begin(), diffs.end(),
                     [&field](const std::string& diff) {
                       return diff.rfind(field + " ", 0) == 0;
                     });
}

/// Perturbs each `kCounters` row of one counter table alone; run_diff must
/// name "section.row" every time.
template <class Counters>
void expect_every_row_named(const char* section,
                            Counters ScenarioRunResult::*table) {
  const ScenarioRunResult want;
  for (const auto& field : Counters::kCounters) {
    ScenarioRunResult got = want;
    (got.*table).*field.member += 1;
    const std::string name = std::string(section) + "." + field.name;
    EXPECT_TRUE(names_field(run_diff(got, want), name)) << name;
  }
}

TEST(ScenarioGoldenContract, RunDiffNamesEveryDriftedObservable) {
  ScenarioRunResult want;
  want.log_fingerprint = 0x1234;
  want.log_entries = 7;
  want.metrics.lookups = 11;
  want.wire.bytes_down = 13;
  EXPECT_TRUE(run_diff(want, want).empty());

  expect_every_row_named("metrics", &ScenarioRunResult::metrics);
  expect_every_row_named("population", &ScenarioRunResult::population);
  expect_every_row_named("wire", &ScenarioRunResult::wire);

  // A golden field (the query log is not a counter table) is named too.
  ScenarioRunResult drifted = want;
  drifted.log_fingerprint ^= 1;
  const std::vector<std::string> diffs = run_diff(drifted, want);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_TRUE(names_field(diffs, "fingerprint")) << diffs.front();

  // Timings and thread counts are not observables.
  drifted = want;
  drifted.run_seconds = 9.0;
  drifted.threads_used = 8;
  EXPECT_TRUE(run_diff(drifted, want).empty());
}

TEST(ScenarioGoldenContract, ReportSectionsFollowReportConfig) {
  Scenario scenario = small_scenario();
  scenario.report.kanonymity = true;
  scenario.report.reidentification = true;
  const ScenarioRunResult result = run_scenario(scenario, std::size_t{1});
  ASSERT_TRUE(result.kanonymity.has_value());
  EXPECT_GT(result.kanonymity->total_expressions, 0u);
  ASSERT_TRUE(result.reidentification.has_value());

  const json::Value report = report_to_json(scenario, result);
  EXPECT_NE(report.find("kanonymity"), nullptr);
  EXPECT_NE(report.find("reidentification"), nullptr);
  EXPECT_NE(report.find("transport"), nullptr);
  ASSERT_NE(report.find("query_log"), nullptr);
  EXPECT_EQ(report.find("query_log")->find("fingerprint")->as_string(),
            json::hex_u64(result.log_fingerprint));

  // Sections off -> absent from the report.
  scenario.report = ReportConfig{};
  scenario.report.transport = false;
  scenario.report.metrics = false;
  scenario.report.population = false;
  const ScenarioRunResult bare = run_scenario(scenario, std::size_t{1});
  const json::Value slim = report_to_json(scenario, bare);
  EXPECT_EQ(slim.find("transport"), nullptr);
  EXPECT_EQ(slim.find("metrics"), nullptr);
  EXPECT_EQ(slim.find("population"), nullptr);
  EXPECT_EQ(slim.find("kanonymity"), nullptr);
}

// ----------------------- shipped-corpus canonicality -----------------------

#ifdef SBP_SCENARIOS_DIR
TEST(ScenarioCorpus, EveryShippedScenarioIsACanonicalFixpoint) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(SBP_SCENARIOS_DIR)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 9u) << "scenario corpus shrank?";

  for (const std::string& file : files) {
    std::string error;
    const auto scenario = load_scenario(file, &error);
    ASSERT_TRUE(scenario.has_value()) << file << ": " << error;

    // parse -> canonical-serialize -> parse is a fixpoint: the canonical
    // form loses nothing and is stable (the same property the fuzzer's
    // canonical-roundtrip invariant checks on generated scenarios).
    const std::string canonical = json::dump(scenario_to_json(*scenario));
    const Scenario reparsed = parse_ok(canonical);
    EXPECT_EQ(json::dump(scenario_to_json(reparsed)), canonical) << file;

    // The checked-in files ARE the canonical form (`sbsim print` output),
    // so diffs of scenario changes always show every effective knob.
    std::string text;
    ASSERT_TRUE(read_file(file, &text, &error)) << error;
    EXPECT_EQ(text, canonical)
        << file << " is not canonical; rewrite it with `sbsim print`";
  }
}
#endif  // SBP_SCENARIOS_DIR

#ifdef SBP_DOCS_DIR
/// Every key the canonical dump writes under `config` has a table row in
/// docs/simulation.md, and every `report` key one in docs/scenarios.md.
TEST(ScenarioDocs, EveryCanonicalKeyHasADocsTableRow) {
  std::string simulation;
  std::string scenarios;
  std::string error;
  ASSERT_TRUE(read_file(std::string(SBP_DOCS_DIR) + "/simulation.md",
                        &simulation, &error))
      << error;
  ASSERT_TRUE(read_file(std::string(SBP_DOCS_DIR) + "/scenarios.md",
                        &scenarios, &error))
      << error;

  const auto expect_rows = [](const json::Value& block,
                              const std::string& doc, const char* file,
                              const auto& self) -> void {
    for (const auto& [key, value] : block.as_object()) {
      EXPECT_NE(doc.find("| `" + key + "` |"), std::string::npos)
          << "`" << key << "` has no table row in " << file;
      if (value.is_object()) self(value, doc, file, self);
    }
  };
  const json::Value canonical = scenario_to_json(Scenario{});
  ASSERT_NE(canonical.find("config"), nullptr);
  ASSERT_NE(canonical.find("report"), nullptr);
  expect_rows(*canonical.find("config"), simulation, "docs/simulation.md",
              expect_rows);
  expect_rows(*canonical.find("report"), scenarios, "docs/scenarios.md",
              expect_rows);
}
#endif  // SBP_DOCS_DIR

}  // namespace
}  // namespace sbp::sim
