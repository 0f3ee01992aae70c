// MetricsRegistry semantics (get-or-create, registration order, exact
// merge) and the two exporters that feed on it: the stable metrics.json
// schema from snapshot_to_json and the Prometheus text format. The export
// checks mirror what tools/check_metrics.py validates in CI, so a schema
// change has to touch both sides deliberately.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/export.hpp"
#include "obs/prom_text.hpp"
#include "obs/snapshot.hpp"
#include "util/json/json.hpp"

namespace sbp::obs {
namespace {

namespace json = util::json;

TEST(ObsMetricsTest, CounterGetOrCreateReturnsStableReference) {
  MetricsRegistry registry;
  Counter& lookups = registry.counter("lookups");
  lookups.add();
  lookups.add(41);
  // Same name resolves to the same entry, not a fresh zero.
  EXPECT_EQ(registry.counter("lookups").value, 42u);
  EXPECT_EQ(registry.entries().size(), 1u);
}

TEST(ObsMetricsTest, EntriesKeepRegistrationOrder) {
  MetricsRegistry registry;
  registry.counter("zulu");
  registry.gauge("alpha");
  registry.histogram("mike");
  ASSERT_EQ(registry.entries().size(), 3u);
  EXPECT_EQ(registry.entries()[0]->name, "zulu");
  EXPECT_EQ(registry.entries()[1]->name, "alpha");
  EXPECT_EQ(registry.entries()[2]->name, "mike");
}

TEST(ObsMetricsTest, FirstRegistrationWinsOnKindConflict) {
  MetricsRegistry registry;
  registry.counter("metric").add(7);
  registry.gauge("metric").set(3.5);  // ignored kind-wise: stays a counter
  ASSERT_EQ(registry.entries().size(), 1u);
  EXPECT_EQ(registry.entries()[0]->kind, MetricsRegistry::Kind::kCounter);
  EXPECT_EQ(registry.counter("metric").value, 7u);
}

TEST(ObsMetricsTest, MergeSumsByNameAndAdoptsUnknownNames) {
  MetricsRegistry a;
  a.counter("shared").add(10);
  a.gauge("occupancy").set(1.5);
  a.histogram("sizes").record(8);

  MetricsRegistry b;
  b.counter("shared").add(5);
  b.gauge("occupancy").set(2.5);
  b.histogram("sizes").record(16);
  b.counter("only_in_b").add(3);

  a.merge_from(b);
  EXPECT_EQ(a.counter("shared").value, 15u);
  EXPECT_DOUBLE_EQ(a.gauge("occupancy").value, 4.0);  // gauges sum
  EXPECT_EQ(a.histogram("sizes").count(), 2u);
  EXPECT_EQ(a.histogram("sizes").sum(), 24u);
  ASSERT_NE(a.find("only_in_b"), nullptr);
  EXPECT_EQ(a.find("only_in_b")->counter.value, 3u);
}

/// A small but fully populated snapshot: every phase, the pool, one busy
/// channel and a couple of counters.
Snapshot sample_snapshot() {
  Snapshot snapshot;
  snapshot.enabled = true;
  snapshot.threads_used = 2;
  snapshot.ticks = 5;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    snapshot.phases.record(static_cast<Phase>(i), 1000 * (i + 1));
  }
  snapshot.pool.batches = 5;
  snapshot.pool.tasks = 80;
  snapshot.pool.dispatch_ns.record(1500);
  snapshot.pool.busy_ns.record(90000);
  snapshot.pool.imbalance_items.record(2);
  snapshot.pool.workers.resize(2);
  snapshot.pool.workers[0] = {90000, 50, 5};
  snapshot.pool.workers[1] = {80000, 30, 5};
  snapshot.transport.channel(Channel::kFullHash).record(132, 52, 2100);
  snapshot.counters.counter("lookups").add(123);
  snapshot.counters.counter("ticks_run").add(5);
  return snapshot;
}

TEST(ObsMetricsTest, SnapshotJsonCarriesAllSixPhases) {
  const json::Value doc = snapshot_to_json(sample_snapshot());
  const std::string text = json::dump(doc, 2);

  for (const char* phase : {"\"plan\"", "\"lookup\"", "\"resync\"",
                            "\"churn_epoch\"", "\"log_drain\"",
                            "\"parallel_tick\""}) {
    EXPECT_NE(text.find(phase), std::string::npos) << phase;
  }
  EXPECT_NE(text.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"phases_by_wall\""), std::string::npos);
  const json::Value* backend = doc.find("sha256_backend");
  ASSERT_NE(backend, nullptr);
  EXPECT_TRUE(backend->as_string() == "sha-ni" ||
              backend->as_string() == "portable")
      << backend->as_string();
  EXPECT_NE(text.find("\"thread_pool\""), std::string::npos);
  EXPECT_NE(text.find("\"full_hash\""), std::string::npos);
  EXPECT_NE(text.find("\"lookups\": 123"), std::string::npos);

  // Finite-by-construction: empty histograms export zeros, never NaN.
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

TEST(ObsMetricsTest, SnapshotJsonIsDeterministic) {
  const std::string a = json::dump(snapshot_to_json(sample_snapshot()), 2);
  const std::string b = json::dump(snapshot_to_json(sample_snapshot()), 2);
  EXPECT_EQ(a, b);
}

TEST(ObsMetricsTest, EmptySnapshotExportsZerosNotNaN) {
  Snapshot snapshot;  // nothing recorded anywhere
  const std::string text = json::dump(snapshot_to_json(snapshot), 2);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
  EXPECT_NE(text.find("\"mean\": 0"), std::string::npos);
}

TEST(ObsMetricsTest, PrometheusTextHasTypedSamples) {
  const std::string text = prometheus_text(sample_snapshot());

  EXPECT_NE(text.find("# TYPE sbsim_ticks_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("sbsim_ticks_total 5"), std::string::npos);
  EXPECT_NE(text.find("phase=\"parallel_tick\""), std::string::npos);
  // Native histogram triple: cumulative buckets with le labels, then
  // _sum and _count.
  EXPECT_NE(text.find("_bucket{"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("_sum"), std::string::npos);
  EXPECT_NE(text.find("_count"), std::string::npos);
  EXPECT_NE(text.find("channel=\"full_hash\""), std::string::npos);

  // Deterministic for the same snapshot.
  EXPECT_EQ(text, prometheus_text(sample_snapshot()));
  // The prefix is caller-controlled.
  const std::string custom = prometheus_text(sample_snapshot(), "engine");
  EXPECT_NE(custom.find("engine_ticks_total"), std::string::npos);
  EXPECT_EQ(custom.find("sbsim_"), std::string::npos);
}

TEST(ObsMetricsTest, SummaryTableSkipsSilentPhasesAndChannels) {
  Snapshot snapshot;
  snapshot.enabled = true;
  snapshot.threads_used = 1;
  snapshot.ticks = 3;
  snapshot.phases.record(Phase::kPlan, 5000);
  const std::string table = summary_table(snapshot);
  EXPECT_NE(table.find("plan"), std::string::npos);
  // Phases with zero spans and channels with zero requests are omitted.
  EXPECT_EQ(table.find("resync"), std::string::npos);
  EXPECT_EQ(table.find("wire/"), std::string::npos);
  EXPECT_EQ(table.find("pool:"), std::string::npos);
}

}  // namespace
}  // namespace sbp::obs
