// src/sim/scenario/generator + src/sim/invariants: the `sbsim fuzz`
// harness. Pins (1) determinism: one seed => one scenario stream, knob
// for knob; (2) validity by construction: every generated scenario
// survives the strict scenario parser via its canonical JSON; (3) the
// invariant catalog holds on generated scenarios (the engine's
// golden-free contract); (4) the doctor self-test hook: a doctored
// invariant fails, shrinks to a minimal scenario, and the shrunken repro
// still fails standalone -- proving the failure path actually fires.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/invariants.hpp"
#include "sim/scenario/generator.hpp"
#include "sim/scenario/scenario.hpp"
#include "util/json/json.hpp"

namespace sbp::sim {
namespace {

namespace json = util::json;

/// CI-sized generator: small enough that one check_invariants() call
/// (several engine runs) costs tens of milliseconds.
GeneratorLimits tiny_limits() {
  GeneratorLimits limits;
  limits.max_users = 40;
  limits.max_ticks = 12;
  limits.max_hosts = 120;
  limits.max_blacklist_entries = 128;
  return limits;
}

InvariantOptions fast_options() {
  InvariantOptions options;
  options.thread_counts = {1, 2};
  return options;
}

TEST(ScenarioGeneratorTest, SameSeedSameStream) {
  ScenarioGenerator a(42);
  ScenarioGenerator b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(json::dump(scenario_to_json(a.next())),
              json::dump(scenario_to_json(b.next())))
        << "iteration " << i;
  }
  EXPECT_EQ(a.emitted(), 10u);
  EXPECT_EQ(a.seed(), 42u);
}

TEST(ScenarioGeneratorTest, DifferentSeedsDiverge) {
  ScenarioGenerator a(1);
  ScenarioGenerator b(2);
  const Scenario sa = a.next();
  const Scenario sb = b.next();
  EXPECT_NE(sa.name, sb.name);  // the name embeds the seed
  EXPECT_NE(json::dump(config_to_json(sa.config)),
            json::dump(config_to_json(sb.config)));
}

TEST(ScenarioGeneratorTest, NamesAreUniquePerIteration) {
  ScenarioGenerator generator(7);
  std::set<std::string> names;
  for (int i = 0; i < 20; ++i) names.insert(generator.next().name);
  EXPECT_EQ(names.size(), 20u);
}

TEST(ScenarioGeneratorTest, EveryEmissionSurvivesTheStrictParser) {
  // Validity by construction: the canonical JSON of every generated
  // scenario must pass the same strict parser a checked-in file does --
  // range checks, non-empty lists, alpha > 1, the lot.
  ScenarioGenerator generator(1234);
  for (int i = 0; i < 50; ++i) {
    const Scenario scenario = generator.next();
    const std::string text = json::dump(scenario_to_json(scenario));
    const json::ParseResult parsed = json::parse(text);
    ASSERT_TRUE(parsed.ok()) << scenario.name;
    std::string error;
    const auto reparsed = parse_scenario(*parsed.value, &error);
    ASSERT_TRUE(reparsed.has_value()) << scenario.name << ": " << error;
    // Bloom populations must always be explicitly sized (bloom_bits 0 is
    // the 3 MB Chromium constant -- ruinous once per simulated user).
    if (reparsed->config.store_kind == storage::StoreKind::kBloom) {
      EXPECT_GE(reparsed->config.bloom_bits, 4096u) << scenario.name;
    }
  }
}

TEST(InvariantsTest, CatalogIsStable) {
  const auto& names = invariant_names();
  ASSERT_EQ(names.size(), 8u);
  // Order is documented (docs/fuzzing.md) and repro files reference the
  // names, so this is an API, not an implementation detail.
  EXPECT_EQ(names[0], "canonical-roundtrip");
  EXPECT_EQ(names[1], "thread-determinism");
  EXPECT_EQ(names[2], "metrics-transparency");
  EXPECT_EQ(names[3], "protocol-equivalence");
  EXPECT_EQ(names[4], "counter-conservation");
  EXPECT_EQ(names[5], "checkpoint-restore");
  EXPECT_EQ(names[6], "batch-scalar-equivalence");
  EXPECT_EQ(names[7], "reference-equivalence");
}

TEST(InvariantsTest, HoldOnGeneratedScenarios) {
  ScenarioGenerator generator(99, tiny_limits());
  for (int i = 0; i < 4; ++i) {
    const Scenario scenario = generator.next();
    const InvariantReport report = check_invariants(scenario, fast_options());
    EXPECT_TRUE(report.ok()) << scenario.name << ": " << report.summary();
    EXPECT_EQ(report.checked.size(), invariant_names().size());
  }
}

TEST(InvariantsTest, HoldAtEightThreads) {
  // One scenario through the full 1/2/8 thread matrix -- the exact legs
  // `sbsim fuzz` defaults to.
  ScenarioGenerator generator(5, tiny_limits());
  const Scenario scenario = generator.next();
  InvariantOptions options;  // defaults: threads 1, 2, 8
  const InvariantReport report = check_invariants(scenario, options);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(InvariantsTest, DoctorForcesEachNamedInvariant) {
  ScenarioGenerator generator(17, tiny_limits());
  const Scenario scenario = generator.next();
  for (const std::string& name : invariant_names()) {
    InvariantOptions options = fast_options();
    options.doctor = name;
    const InvariantReport report = check_invariants(scenario, options);
    EXPECT_FALSE(report.ok()) << name;
    EXPECT_TRUE(report.failed(name)) << name << ": " << report.summary();
    // The doctored failure rides on a full honest pass: everything else
    // still checks out.
    EXPECT_EQ(report.failures.size(), 1u) << report.summary();
  }
}

TEST(InvariantsTest, UnknownDoctorNameIsAFailureNotAPass) {
  ScenarioGenerator generator(17, tiny_limits());
  InvariantOptions options = fast_options();
  options.doctor = "no-such-invariant";
  const InvariantReport report =
      check_invariants(generator.next(), options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.failed("no-such-invariant"));
}

TEST(ShrinkTest, ShrinksDoctoredFailureToMinimalScenarioThatStillFails) {
  ScenarioGenerator generator(23, tiny_limits());
  const Scenario scenario = generator.next();
  InvariantOptions options = fast_options();
  options.doctor = "counter-conservation";

  const ShrinkResult shrunk = shrink_failing_scenario(scenario, options);
  EXPECT_FALSE(shrunk.report.ok());
  EXPECT_TRUE(shrunk.report.failed("counter-conservation"));
  EXPECT_GT(shrunk.steps_tried, 0u);
  EXPECT_GT(shrunk.steps_accepted, 0u);
  // A doctored failure survives every simplification, so the greedy pass
  // must bottom out at the floor of each dimension.
  EXPECT_EQ(shrunk.scenario.config.num_users, 1u);
  EXPECT_EQ(shrunk.scenario.config.ticks, 1u);
  EXPECT_EQ(shrunk.scenario.config.churn.epoch_ticks, 0u);
  EXPECT_FALSE(shrunk.scenario.config.mitigation.dummy_requests);

  // The repro contract: re-checking the shrunken scenario standalone
  // (same options) fails the same invariant again.
  const InvariantReport recheck =
      check_invariants(shrunk.scenario, options);
  EXPECT_TRUE(recheck.failed("counter-conservation"));

  // ...and its canonical JSON still parses, so the written repro file is
  // loadable by every sbsim subcommand.
  std::string error;
  const json::ParseResult reparsed =
      json::parse(json::dump(scenario_to_json(shrunk.scenario)));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(parse_scenario(*reparsed.value, &error).has_value()) << error;
}

TEST(ShrinkTest, HealthyScenarioIsNotShrunk) {
  ScenarioGenerator generator(31, tiny_limits());
  const Scenario scenario = generator.next();
  const ShrinkResult shrunk =
      shrink_failing_scenario(scenario, fast_options());
  EXPECT_TRUE(shrunk.report.ok());
  EXPECT_EQ(shrunk.steps_tried, 0u);
  EXPECT_EQ(json::dump(scenario_to_json(shrunk.scenario)),
            json::dump(scenario_to_json(scenario)));
}

}  // namespace
}  // namespace sbp::sim
