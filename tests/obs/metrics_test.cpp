// The snapshot exporters: the stable metrics.json schema from
// snapshot_to_json, the Prometheus text format and the stderr summary
// table. The export checks mirror what tools/check_metrics.py validates in
// CI, so a schema change has to touch both sides deliberately.
#include <gtest/gtest.h>

#include <string>

#include "obs/export.hpp"
#include "obs/prom_text.hpp"
#include "obs/snapshot.hpp"
#include "util/json/json.hpp"

namespace sbp::obs {
namespace {

namespace json = util::json;

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
  snapshot.counters = {{"lookups", 123}, {"ticks_run", 5}};
  return snapshot;
}

TEST(ObsMetricsTest, CountersAndChannelCountsExportFromOneRecord) {
  Snapshot snapshot = sample_snapshot();
  snapshot.counters = {{"zulu", 3}, {"alpha", 1}, {"mike", 2}};
  snapshot.transport.channel(Channel::kV3Update).record(40, 900, 10);
  snapshot.transport.channel(Channel::kV3Update).record(44, 100, 20);

  // The counter list exports in list order, not sorted, to both formats.
  const json::Value doc = snapshot_to_json(snapshot);
  const json::Object& counters = doc.find("counters")->as_object();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].first, "zulu");
  EXPECT_EQ(counters[0].second.as_int64(), 3);
  EXPECT_EQ(counters[1].first, "alpha");
  EXPECT_EQ(counters[2].first, "mike");
  const std::string text = prometheus_text(snapshot);
  const std::size_t zulu = text.find("# TYPE sbsim_zulu counter\n"
                                     "sbsim_zulu 3\n");
  const std::size_t alpha = text.find("# TYPE sbsim_alpha counter\n"
                                      "sbsim_alpha 1\n");
  const std::size_t mike = text.find("# TYPE sbsim_mike counter\n"
                                     "sbsim_mike 2\n");
  ASSERT_NE(zulu, std::string::npos);
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(mike, std::string::npos);
  EXPECT_LT(zulu, alpha);
  EXPECT_LT(alpha, mike);

  // A channel's request and byte counts are its frame-size histograms'
  // count and sums.
  const json::Value& channel = *doc.find("transport")->find("v3_update");
  const json::Value& up = *channel.find("request_bytes");
  const json::Value& down = *channel.find("response_bytes");
  EXPECT_EQ(channel.find("requests")->as_int64(), 2);
  EXPECT_EQ(channel.find("bytes_up")->as_int64(), 84);
  EXPECT_EQ(channel.find("bytes_down")->as_int64(), 1000);
  EXPECT_EQ(up.find("count")->as_int64(), 2);
  EXPECT_EQ(up.find("sum")->as_int64(), 84);
  EXPECT_EQ(down.find("sum")->as_int64(), 1000);
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

TEST(ObsMetricsTest, SetupSectionExportsOnlyWhenSet) {
  Snapshot snapshot = sample_snapshot();
  EXPECT_EQ(snapshot_to_json(snapshot).find("setup"), nullptr);
  EXPECT_EQ(summary_table(snapshot).find("setup:"), std::string::npos);

  snapshot.setup = SetupTimes{4'000'000, 1'000'000, 2'000'000, 8'000'000};
  const json::Value doc = snapshot_to_json(snapshot);
  const json::Value* setup = doc.find("setup");
  ASSERT_NE(setup, nullptr);
  EXPECT_EQ(json::dump(*setup, 0),
            "{\"seed_blacklist_ns\":4000000, \"seal_universe_ns\":1000000, "
            "\"build_population_ns\":2000000, \"total_ns\":8000000}");
  EXPECT_NE(summary_table(snapshot).find(
                "setup: total=8.00ms seed_blacklist=4.00ms "
                "seal_universe=1.00ms build_population=2.00ms\n"),
            std::string::npos);
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
