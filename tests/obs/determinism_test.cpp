// The observability layer's hard contract: collect_metrics is PROFILING,
// not behaviour. Turning it on must not move one byte of the query log,
// one wire byte, or one counter -- at any thread count. This is the unit-
// scale version of `sbsim verify --metrics` and the bench's metrics-on
// determinism leg; it is also the test the TSan CI job runs to prove the
// pool's sample staging is race-free.
#include <gtest/gtest.h>

#include <utility>

#include "obs/snapshot.hpp"
#include "sim/engine.hpp"
#include "sim/log_sink.hpp"

namespace sbp::sim {
namespace {

/// Churned, multi-shard config exercising every instrumented phase:
/// parallel plan/lookup, staggered resyncs, churn epochs, log drain.
SimConfig obs_config() {
  SimConfig config;
  config.num_users = 120;
  config.ticks = 24;
  config.num_shards = 8;
  config.seed = 77;
  config.corpus.num_hosts = 500;
  config.corpus.seed = 77;
  config.corpus.max_pages = 120;
  config.blacklist.page_fraction = 0.05;
  config.blacklist.site_fraction = 0.01;
  config.churn.epoch_ticks = 6;
  config.churn.add_rate = 0.05;
  config.churn.remove_rate = 0.03;
  config.churn.minimum_wait_ticks = 8;
  config.traffic.session_start_probability = 0.3;
  config.traffic.session_continue_probability = 0.7;
  return config;
}

/// Every deterministic observable of one run.
struct RunResult {
  std::vector<sb::QueryLogEntry> entries;
  std::uint64_t fingerprint = 0;
  SimMetrics metrics;
  sb::TransportStats wire;
  std::uint64_t client_state_builds = 0;
  std::uint64_t site_cache_hits = 0;
  std::uint64_t site_cache_misses = 0;
  std::optional<obs::Snapshot> snapshot;
};

RunResult run(bool collect_metrics, std::size_t threads) {
  SimConfig config = obs_config();
  config.collect_metrics = collect_metrics;
  config.num_threads = threads;
  Engine engine(std::move(config));
  InMemorySink memory;
  CountingSink counting;
  FanoutSink fanout({&memory, &counting});
  engine.attach_sink(&fanout, /*retain_in_memory=*/false);
  engine.run();
  RunResult result{memory.entries(),
                   counting.fingerprint(),
                   engine.metrics(),
                   engine.transport_stats(),
                   engine.client_state_builds(),
                   engine.site_cache_hits(),
                   engine.site_cache_misses(),
                   std::nullopt};
  if (engine.metrics_enabled()) result.snapshot = engine.obs_snapshot();
  return result;
}

void expect_identical(const RunResult& off, const RunResult& on,
                      const char* label) {
  ASSERT_FALSE(off.entries.empty()) << label << ": population was silent";
  ASSERT_GT(off.site_cache_misses, 0u) << label << ": no site was built";
  EXPECT_EQ(off.entries, on.entries) << label;
  EXPECT_EQ(off.fingerprint, on.fingerprint) << label;
  EXPECT_EQ(off.metrics.lookups, on.metrics.lookups) << label;
  EXPECT_EQ(off.metrics.local_hit_lookups, on.metrics.local_hit_lookups)
      << label;
  EXPECT_EQ(off.metrics.malicious_verdicts, on.metrics.malicious_verdicts)
      << label;
  EXPECT_EQ(off.metrics.churn_updates, on.metrics.churn_updates) << label;
  EXPECT_EQ(off.wire.bytes_up, on.wire.bytes_up) << label;
  EXPECT_EQ(off.wire.bytes_down, on.wire.bytes_down) << label;
  EXPECT_EQ(off.wire.full_hash_requests, on.wire.full_hash_requests)
      << label;
  EXPECT_EQ(off.wire.update_requests, on.wire.update_requests) << label;
  EXPECT_EQ(off.client_state_builds, on.client_state_builds) << label;
  EXPECT_EQ(off.site_cache_hits, on.site_cache_hits) << label;
  EXPECT_EQ(off.site_cache_misses, on.site_cache_misses) << label;
  EXPECT_LE(on.site_cache_hits + on.site_cache_misses,
            on.metrics.url_cache_misses)
      << label;
  if (on.snapshot) {
    for (const auto& [name, value] :
         {std::pair{"client_state_builds", on.client_state_builds},
          std::pair{"site_cache_hits", on.site_cache_hits},
          std::pair{"site_cache_misses", on.site_cache_misses}}) {
      const obs::MetricsRegistry::Entry* entry =
          on.snapshot->counters.find(name);
      ASSERT_NE(entry, nullptr) << label << " " << name;
      EXPECT_EQ(entry->counter.value, value) << label << " " << name;
    }
  }
}

TEST(ObsDeterminismTest, MetricsOnMatchesMetricsOffAtEveryThreadCount) {
  const RunResult baseline = run(/*collect_metrics=*/false, 1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const RunResult off = run(false, threads);
    const RunResult on = run(true, threads);
    const std::string label = "threads=" + std::to_string(threads);
    expect_identical(baseline, off, (label + " off").c_str());
    expect_identical(baseline, on, (label + " on").c_str());
    EXPECT_FALSE(off.snapshot.has_value()) << label;
    ASSERT_TRUE(on.snapshot.has_value()) << label;
  }
}

TEST(ObsDeterminismTest, SnapshotContentsAreSane) {
  const RunResult result = run(/*collect_metrics=*/true, 2);
  ASSERT_TRUE(result.snapshot.has_value());
  const obs::Snapshot& snapshot = *result.snapshot;

  EXPECT_TRUE(snapshot.enabled);
  EXPECT_EQ(snapshot.threads_used, 2u);
  EXPECT_EQ(snapshot.ticks, result.metrics.ticks_run);

  // One plan and one lookup span per user per tick; parallel_tick once per
  // tick; log_drain every tick; resync/churn on their cadences.
  const obs::PhaseStats& plan = snapshot.phases.stats(obs::Phase::kPlan);
  const obs::PhaseStats& lookup = snapshot.phases.stats(obs::Phase::kLookup);
  EXPECT_EQ(plan.spans, result.metrics.ticks_run * 120u);
  EXPECT_EQ(lookup.spans, plan.spans);
  EXPECT_GT(plan.total_ns, 0u);
  EXPECT_EQ(snapshot.phases.stats(obs::Phase::kParallelTick).spans,
            result.metrics.ticks_run);
  EXPECT_EQ(snapshot.phases.stats(obs::Phase::kLogDrain).spans,
            result.metrics.ticks_run);
  EXPECT_GT(snapshot.phases.stats(obs::Phase::kChurnEpoch).spans, 0u);
  EXPECT_GT(snapshot.phases.stats(obs::Phase::kResync).spans, 0u);

  // Pool saw one batch per tick over two threads (caller + 1 worker).
  EXPECT_EQ(snapshot.pool.batches, result.metrics.ticks_run);
  ASSERT_EQ(snapshot.pool.workers.size(), 2u);
  EXPECT_GT(snapshot.pool.workers[0].executed +
                snapshot.pool.workers[1].executed,
            0u);

  // Transport channels must reconcile exactly with TransportStats: the
  // obs layer is a refinement, not a second count.
  std::uint64_t obs_up = 0;
  std::uint64_t obs_down = 0;
  std::uint64_t obs_requests = 0;
  for (const obs::ChannelStats& channel : snapshot.transport.channels) {
    obs_up += channel.bytes_up;
    obs_down += channel.bytes_down;
    obs_requests += channel.requests;
  }
  EXPECT_EQ(obs_up, result.wire.bytes_up);
  EXPECT_EQ(obs_down, result.wire.bytes_down);
  // Failed/injected requests are counted by TransportStats but not obs.
  EXPECT_EQ(obs_requests + result.wire.failed_requests,
            result.wire.full_hash_requests + result.wire.update_requests +
                result.wire.v4_update_requests + result.wire.v1_requests);

  // Counters mirror the scenario report names.
  ASSERT_NE(snapshot.counters.find("lookups"), nullptr);
  EXPECT_EQ(snapshot.counters.find("lookups")->counter.value,
            result.metrics.lookups);
  ASSERT_NE(snapshot.counters.find("ticks_run"), nullptr);
  EXPECT_EQ(snapshot.counters.find("ticks_run")->counter.value,
            result.metrics.ticks_run);
}

TEST(ObsDeterminismTest, PerTickSeriesCoversEveryTick) {
  SimConfig config = obs_config();
  config.ticks = 10;
  config.collect_metrics = true;
  config.metrics_per_tick_series = true;
  config.num_threads = 2;
  Engine engine(std::move(config));
  CountingSink sink;
  engine.attach_sink(&sink, /*retain_in_memory=*/false);
  engine.run();

  const obs::Snapshot snapshot = engine.obs_snapshot();
  ASSERT_EQ(snapshot.per_tick.size(), 10u);
  for (std::size_t i = 0; i < snapshot.per_tick.size(); ++i) {
    EXPECT_EQ(snapshot.per_tick[i].tick, i);
    // Plan + lookup ran this tick, so the sample cannot be all zeros.
    std::uint64_t total = 0;
    for (const std::uint64_t ns : snapshot.per_tick[i].phase_ns) total += ns;
    EXPECT_GT(total, 0u) << "tick " << i;
  }
}

}  // namespace
}  // namespace sbp::sim
