// The observability layer's hard contract: collect_metrics is PROFILING,
// not behaviour. Turning it on must not move one byte of the query log,
// one wire byte, or one counter -- at any thread count. This is the unit-
// scale version of `sbsim verify --metrics` and the bench's metrics-on
// determinism leg; it is also the test the TSan CI job runs to prove the
// pool's sample staging is race-free.
#include <gtest/gtest.h>

#include <array>
#include <iterator>
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
  std::uint64_t update_decode_reuses = 0;
  std::uint64_t update_serve_locked = 0;
  std::uint64_t sync_state_locked = 0;
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
                   engine.update_decode_reuses(),
                   engine.server().update_serve_lock().acquisitions,
                   engine.sync_states().lock_stats().acquisitions,
                   std::nullopt};
  if (engine.metrics_enabled()) result.snapshot = engine.obs_snapshot();
  return result;
}

void expect_identical(const RunResult& off, const RunResult& on,
                      const char* label) {
  ASSERT_FALSE(off.entries.empty()) << label << ": population was silent";
  ASSERT_GT(off.metrics.site_cache_misses, 0u)
      << label << ": no site was built";
  EXPECT_EQ(off.entries, on.entries) << label;
  EXPECT_EQ(off.fingerprint, on.fingerprint) << label;
  for (const auto& field : SimMetrics::kCounters) {
    EXPECT_EQ(off.metrics.*field.member, on.metrics.*field.member)
        << label << " " << field.name;
  }
  for (const auto& field : sb::TransportStats::kCounters) {
    EXPECT_EQ(off.wire.*field.member, on.wire.*field.member)
        << label << " " << field.name;
  }
  EXPECT_LE(on.metrics.site_cache_hits + on.metrics.site_cache_misses,
            on.metrics.url_cache_misses)
      << label;
  // Pages come from the seed's site prefixes and the site caches' misses,
  // so at least one per miss.
  EXPECT_GE(on.metrics.corpus_pages_generated,
            on.metrics.site_cache_misses)
      << label;
  // Each shard owns its transport's decode memo and its users re-sync in a
  // fixed order, so the memo hits the same frames at any thread count.
  ASSERT_GT(off.update_decode_reuses, 0u) << label << ": no decode reused";
  EXPECT_EQ(off.update_decode_reuses, on.update_decode_reuses) << label;
  EXPECT_LT(on.update_decode_reuses,
            on.wire.update_requests + on.wire.v4_update_requests)
      << label;
  // Which calls miss the tables published at the tick barrier, and so take
  // a mutex, is fixed by the barrier schedule alone.
  ASSERT_GT(off.update_serve_locked, 0u) << label;
  EXPECT_EQ(off.update_serve_locked, on.update_serve_locked) << label;
  EXPECT_EQ(off.sync_state_locked, on.sync_state_locked) << label;
  EXPECT_LT(on.update_serve_locked,
            on.wire.update_requests + on.wire.v4_update_requests)
      << label << ": no update request read the published table";
  if (on.snapshot) {
    // The exported counters are the SimMetrics table, name for name and
    // in table order (ending in corpus_pages_generated), then the server's
    // and the transports' two counters and the two lock counters.
    const util::CounterList& counters = on.snapshot->counters;
    const std::size_t rows = std::size(SimMetrics::kCounters);
    ASSERT_EQ(rows, 19u) << label;
    ASSERT_EQ(counters.size(), rows + 4) << label;
    EXPECT_EQ(counters[rows - 1].first, "corpus_pages_generated") << label;
    for (std::size_t i = 0; i < rows; ++i) {
      const auto& field = SimMetrics::kCounters[i];
      EXPECT_EQ(counters[i].first, field.name) << label;
      EXPECT_EQ(counters[i].second, on.metrics.*field.member)
          << label << " " << field.name;
    }
    EXPECT_EQ(counters[rows].first, "update_encode_cache_hits") << label;
    EXPECT_EQ(counters[rows + 1].first, "update_decode_reuses") << label;
    EXPECT_EQ(counters[rows + 1].second, on.update_decode_reuses) << label;
    EXPECT_EQ(counters[rows + 2].first, "update_serve_locked") << label;
    EXPECT_EQ(counters[rows + 2].second, on.update_serve_locked) << label;
    EXPECT_EQ(counters[rows + 3].first, "sync_state_locked") << label;
    EXPECT_EQ(counters[rows + 3].second, on.sync_state_locked) << label;
    // The locks section: each mutex's acquisitions, and one wait and one
    // hold time per acquisition.
    ASSERT_EQ(on.snapshot->locks.size(), 2u) << label;
    EXPECT_EQ(on.snapshot->locks[0].first, "update_serve") << label;
    EXPECT_EQ(on.snapshot->locks[1].first, "sync_state") << label;
    for (const auto& [name, lock] : on.snapshot->locks) {
      const std::uint64_t acquisitions = name == "update_serve"
                                             ? on.update_serve_locked
                                             : on.sync_state_locked;
      EXPECT_EQ(lock.acquisitions, acquisitions) << label << " " << name;
      EXPECT_EQ(lock.wait_ns.count(), acquisitions) << label << " " << name;
      EXPECT_EQ(lock.hold_ns.count(), acquisitions) << label << " " << name;
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

  // One plan and one lookup span per shard per tick; parallel_tick once
  // per tick; log_drain every tick; resync/churn on their cadences.
  const obs::PhaseStats& plan = snapshot.phases.stats(obs::Phase::kPlan);
  const obs::PhaseStats& lookup = snapshot.phases.stats(obs::Phase::kLookup);
  EXPECT_EQ(plan.spans, result.metrics.ticks_run * obs_config().num_shards);
  EXPECT_EQ(lookup.spans, plan.spans);
  EXPECT_GT(plan.total_ns, 0u);
  EXPECT_EQ(snapshot.phases.stats(obs::Phase::kParallelTick).spans,
            result.metrics.ticks_run);
  EXPECT_EQ(snapshot.phases.stats(obs::Phase::kLogDrain).spans,
            result.metrics.ticks_run);

  // The setup breakdown: its steps run inside the constructor.
  ASSERT_TRUE(snapshot.setup.has_value());
  const obs::SetupTimes& setup = *snapshot.setup;
  EXPECT_GT(setup.seed_blacklist_ns, 0u);
  EXPECT_GT(setup.build_population_ns, 0u);
  EXPECT_LE(setup.seed_blacklist_ns + setup.seal_universe_ns +
                setup.build_population_ns,
            setup.total_ns);
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
    obs_up += channel.request_bytes.sum();
    obs_down += channel.response_bytes.sum();
    obs_requests += channel.request_bytes.count();
  }
  EXPECT_EQ(obs_up, result.wire.bytes_up);
  EXPECT_EQ(obs_down, result.wire.bytes_down);
  // Failed/injected requests are counted by TransportStats but not obs.
  EXPECT_EQ(obs_requests + result.wire.failed_requests,
            result.wire.full_hash_requests + result.wire.update_requests +
                result.wire.v4_update_requests + result.wire.v1_requests);

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
  std::array<std::uint64_t, obs::kPhaseCount> summed{};
  for (std::size_t i = 0; i < snapshot.per_tick.size(); ++i) {
    EXPECT_EQ(snapshot.per_tick[i].tick, i);
    // Plan + lookup ran this tick, so the sample cannot be all zeros.
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      total += snapshot.per_tick[i].phase_ns[p];
      summed[p] += snapshot.per_tick[i].phase_ns[p];
    }
    EXPECT_GT(total, 0u) << "tick " << i;
  }
  // Every span lands in exactly one tick's sample.
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::Phase>(p);
    EXPECT_EQ(summed[p], snapshot.phases.stats(phase).total_ns)
        << obs::phase_name(phase);
  }
}

}  // namespace
}  // namespace sbp::sim
