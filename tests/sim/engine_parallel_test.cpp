// Thread-count invariance of the parallel simulation runtime: the same
// seed must produce bit-identical query logs, fingerprints and counters at
// num_threads 1 (the sequential engine), 2 and 8 -- for every protocol
// generation and for mixed populations. This is the ctest-enforced
// acceptance criterion of the parallel-runtime PR; bench_sim_throughput
// re-checks it at population scale on every CI run.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/log_sink.hpp"
#include "sim/scenario/runner.hpp"

namespace sbp::sim {
namespace {

/// Busy little population: enough shards to spread over 8 threads, churn
/// (serial-phase mutation between parallel phases), targets and v1/v3/v4
/// traffic depending on the caller's tweaks.
SimConfig parallel_config(std::uint64_t seed) {
  SimConfig config;
  config.num_users = 160;
  config.ticks = 30;
  config.num_shards = 16;
  config.seed = seed;
  config.corpus.num_hosts = 600;
  config.corpus.seed = seed;
  config.corpus.max_pages = 150;
  config.blacklist.page_fraction = 0.05;
  config.blacklist.site_fraction = 0.01;
  config.churn.epoch_ticks = 7;
  config.churn.add_rate = 0.05;
  config.churn.remove_rate = 0.03;
  config.traffic.session_start_probability = 0.3;
  config.traffic.session_continue_probability = 0.7;
  return config;
}

/// Everything a run observably produces: the log entries themselves plus
/// the runner's view of the run (fingerprint and every counter table).
struct RunResult {
  std::vector<sb::QueryLogEntry> entries;
  ScenarioRunResult run;
};

RunResult run_with_threads(SimConfig config, std::size_t threads) {
  config.num_threads = threads;
  Engine engine(std::move(config));
  InMemorySink memory;
  CountingSink counting;
  FanoutSink fanout({&memory, &counting});
  engine.attach_sink(&fanout, /*retain_in_memory=*/false);
  engine.run();
  return {memory.entries(), read_run(engine, counting)};
}

void expect_equal_runs(const RunResult& a, const RunResult& b,
                       const char* label) {
  ASSERT_FALSE(a.entries.empty()) << label << ": population was silent";
  EXPECT_EQ(a.entries, b.entries) << label;
  EXPECT_EQ(run_diff(b.run, a.run), std::vector<std::string>{}) << label;
}

TEST(SimEngineParallelTest, V3PopulationIsThreadCountInvariant) {
  const RunResult one = run_with_threads(parallel_config(51), 1);
  const RunResult two = run_with_threads(parallel_config(51), 2);
  const RunResult eight = run_with_threads(parallel_config(51), 8);
  expect_equal_runs(one, two, "v3 1 vs 2 threads");
  expect_equal_runs(one, eight, "v3 1 vs 8 threads");
}

TEST(SimEngineParallelTest, V4PopulationIsThreadCountInvariant) {
  auto config = [] {
    SimConfig c = parallel_config(53);
    c.protocol = sb::ProtocolVersion::kV4Sliced;
    return c;
  };
  const RunResult one = run_with_threads(config(), 1);
  const RunResult two = run_with_threads(config(), 2);
  const RunResult eight = run_with_threads(config(), 8);
  expect_equal_runs(one, two, "v4 1 vs 2 threads");
  expect_equal_runs(one, eight, "v4 1 vs 8 threads");
}

TEST(SimEngineParallelTest, V1PopulationIsThreadCountInvariant) {
  // v1 exercises the snapshotted lookup_v1 endpoint (and its clear-URL log
  // entries) from every worker thread.
  auto config = [] {
    SimConfig c = parallel_config(57);
    c.protocol = sb::ProtocolVersion::kV1Lookup;
    c.ticks = 12;  // v1 logs every browsed URL; keep the log small
    return c;
  };
  const RunResult one = run_with_threads(config(), 1);
  const RunResult eight = run_with_threads(config(), 8);
  expect_equal_runs(one, eight, "v1 1 vs 8 threads");
}

TEST(SimEngineParallelTest, MixedPopulationIsThreadCountInvariant) {
  auto config = [] {
    SimConfig c = parallel_config(59);
    c.protocol = sb::ProtocolVersion::kV3Chunked;
    c.mix_protocol = sb::ProtocolVersion::kV4Sliced;
    c.mix_fraction = 0.5;
    return c;
  };
  const RunResult one = run_with_threads(config(), 1);
  const RunResult two = run_with_threads(config(), 2);
  const RunResult eight = run_with_threads(config(), 8);
  expect_equal_runs(one, two, "mixed 1 vs 2 threads");
  expect_equal_runs(one, eight, "mixed 1 vs 8 threads");
}

TEST(SimEngineParallelTest, TargetTrackingSurvivesParallelRuns) {
  // The Section 6.3 observable -- which cookies queried the target -- is
  // part of the log content, so it must be thread-count invariant too.
  auto config = [] {
    SimConfig c = parallel_config(61);
    c.traffic.target_urls = {"http://target.example/"};
    c.traffic.interested_fraction = 0.25;
    c.traffic.target_visit_probability = 0.5;
    c.server_setup = [](sb::Server& server) {
      server.add_expression("goog-malware-shavar", "target.example/");
    };
    return c;
  };
  const RunResult one = run_with_threads(config(), 1);
  const RunResult eight = run_with_threads(config(), 8);
  expect_equal_runs(one, eight, "tracking 1 vs 8 threads");
  EXPECT_GT(one.run.metrics.target_visits, 0u);
}

TEST(SimEngineParallelTest, DummyMitigationIsThreadCountInvariant) {
  // The mitigated dispatch path talks to the transport directly (padded
  // requests) -- it must shard cleanly as well.
  auto config = [] {
    SimConfig c = parallel_config(63);
    c.mitigation.dummy_requests = true;
    c.mitigation.dummies_per_prefix = 4;
    return c;
  };
  const RunResult one = run_with_threads(config(), 1);
  const RunResult eight = run_with_threads(config(), 8);
  expect_equal_runs(one, eight, "dummy mitigation 1 vs 8 threads");
  EXPECT_GT(one.run.metrics.mitigated_lookups, 0u);
}

TEST(SimEngineParallelTest, DefaultThreadCountResolvesAndStaysDeterministic) {
  // num_threads = 0 resolves to hardware concurrency (>= 1, capped at the
  // shard count) and still matches the sequential run bit for bit.
  const RunResult hw = run_with_threads(parallel_config(67), 0);
  const RunResult one = run_with_threads(parallel_config(67), 1);
  expect_equal_runs(one, hw, "hardware-default vs 1 thread");

  SimConfig config = parallel_config(67);
  config.num_threads = 0;
  Engine engine(std::move(config));
  EXPECT_GE(engine.num_threads(), 1u);
  EXPECT_LE(engine.num_threads(), engine.config().num_shards);
}

TEST(SimEngineParallelTest, MoreThreadsThanShardsIsCappedAndCorrect) {
  SimConfig config = parallel_config(71);
  config.num_shards = 3;
  const RunResult one = run_with_threads(config, 1);
  const RunResult many = run_with_threads(config, 64);
  expect_equal_runs(one, many, "3 shards, 64 requested threads");

  config.num_threads = 64;
  Engine engine(std::move(config));
  EXPECT_EQ(engine.num_threads(), 3u);  // capped at the shard count
}

TEST(SimEngineParallelTest, FullSiteTableIsThreadCountInvariant) {
  // Shards read the one site table with no lock during a tick and it
  // changes only at the barrier, in shard order; a table small enough to
  // evict several sites a tick must still leave every counter the same at
  // any thread count.
  SimConfig config = parallel_config(73);
  config.site_cache_entries = 2;  // 32 sites over 16 shards
  const RunResult one = run_with_threads(config, 1);
  const RunResult two = run_with_threads(config, 2);
  const RunResult eight = run_with_threads(config, 8);
  expect_equal_runs(one, two, "full site table 1 vs 2 threads");
  expect_equal_runs(one, eight, "full site table 1 vs 8 threads");

  Engine engine(std::move(config));
  engine.run();
  EXPECT_EQ(engine.site_table().capacity(), 32u);
  EXPECT_EQ(engine.site_table().size(), 32u);
  EXPECT_GT(engine.metrics().site_cache_misses, 4 * 32u);
  EXPECT_GT(engine.metrics().site_cache_hits, 0u);
}

}  // namespace
}  // namespace sbp::sim
