// Live blacklist churn through the full engine stack: epoch mutations
// change server state mid-run, clients re-sync on their minimum-wait
// timers via true incremental deltas, and none of it may cost the
// determinism contract -- same seed => bit-identical logs, fingerprints
// and wire counters at ANY thread count, churn enabled. Also pins the
// Section 6 targeted-injection scenario (a victim-specific prefix added
// via an update epoch becomes observable in the query log) and the lazy
// re-validation of per-shard URL-cache entries stamped before an epoch
// grew the listed-prefix universe.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crypto/digest.hpp"
#include "sb/protocol_v4.hpp"
#include "sim/log_sink.hpp"
#include "sim/scenario/runner.hpp"
#include "storage/raw_hash_store.hpp"

namespace sbp::sim {
namespace {

constexpr const char* kList = "goog-malware-shavar";

/// A busy little churning world: epochs every 6 ticks (5 epochs in 36
/// ticks), aggressive add/retire rates so every epoch visibly mutates the
/// lists, default re-sync cadence (= one epoch).
SimConfig churn_config(std::uint64_t seed) {
  SimConfig config;
  config.num_users = 120;
  config.ticks = 36;
  config.num_shards = 8;
  config.seed = seed;
  config.corpus.num_hosts = 600;
  config.corpus.seed = seed;
  config.corpus.max_pages = 150;
  config.blacklist.page_fraction = 0.05;
  config.blacklist.site_fraction = 0.01;
  config.traffic.session_start_probability = 0.3;
  config.traffic.session_continue_probability = 0.7;
  config.churn.epoch_ticks = 6;
  config.churn.add_rate = 0.08;
  config.churn.remove_rate = 0.04;
  return config;
}

/// The log entries themselves plus the runner's view of the run
/// (fingerprint and every counter table, client_state_builds included).
struct RunResult {
  std::vector<sb::QueryLogEntry> entries;
  ScenarioRunResult run;
};

RunResult run_with_threads(SimConfig config, std::size_t threads,
                           bool collect_metrics = false) {
  config.num_threads = threads;
  config.collect_metrics = collect_metrics;
  Engine engine(std::move(config));
  InMemorySink memory;
  CountingSink counting;
  FanoutSink fanout({&memory, &counting});
  engine.attach_sink(&fanout, /*retain_in_memory=*/false);
  engine.run();
  return {memory.entries(), read_run(engine, counting)};
}

/// Every counter must be exact at any thread count: wire accounting (the
/// update channel included) is what the provider bills and observes, and
/// which shard asks first for a shared sync state never changes how many
/// distinct states are built.
void expect_equal_runs(const RunResult& a, const RunResult& b,
                       const char* label) {
  ASSERT_FALSE(a.entries.empty()) << label << ": population was silent";
  EXPECT_EQ(a.entries, b.entries) << label;
  EXPECT_EQ(run_diff(b.run, a.run), std::vector<std::string>{}) << label;
}

TEST(SimEngineChurnTest, ChurnedV3PopulationIsThreadCountInvariant) {
  const RunResult one = run_with_threads(churn_config(81), 1);
  const RunResult two = run_with_threads(churn_config(81), 2);
  const RunResult eight = run_with_threads(churn_config(81), 8);
  EXPECT_GT(one.run.metrics.churn_events, 0u);
  EXPECT_GT(one.run.metrics.churn_updates, 0u);
  expect_equal_runs(one, two, "churned v3 1 vs 2 threads");
  expect_equal_runs(one, eight, "churned v3 1 vs 8 threads");
}

TEST(SimEngineChurnTest, ChurnedV4PopulationIsThreadCountInvariant) {
  auto config = [] {
    SimConfig c = churn_config(83);
    c.protocol = sb::ProtocolVersion::kV4Sliced;
    return c;
  };
  const RunResult one = run_with_threads(config(), 1);
  const RunResult two = run_with_threads(config(), 2);
  const RunResult eight = run_with_threads(config(), 8);
  expect_equal_runs(one, two, "churned v4 1 vs 2 threads");
  expect_equal_runs(one, eight, "churned v4 1 vs 8 threads");
}

TEST(SimEngineChurnTest, MixedPopulationResyncsMidRunOnBothChannels) {
  auto config = [] {
    SimConfig c = churn_config(87);
    c.mix_protocol = sb::ProtocolVersion::kV4Sliced;
    c.mix_fraction = 0.5;
    return c;
  };
  const RunResult one = run_with_threads(config(), 1);
  const RunResult two = run_with_threads(config(), 2);
  const RunResult eight = run_with_threads(config(), 8);
  expect_equal_runs(one, two, "churned mixed 1 vs 2 threads");
  expect_equal_runs(one, eight, "churned mixed 1 vs 8 threads");
  expect_equal_runs(one, run_with_threads(config(), 1, /*metrics=*/true),
                    "churned mixed metrics off vs on, 1 thread");
  expect_equal_runs(one, run_with_threads(config(), 8, /*metrics=*/true),
                    "churned mixed metrics off vs on, 8 threads");
  // Both generations share their states: far fewer builds than syncs.
  EXPECT_GT(one.run.metrics.client_state_builds, 0u);
  EXPECT_LT(one.run.metrics.client_state_builds * 4,
            one.run.population.updates_attempted);

  // 60 v3 + 60 v4 users sync once at construction; anything beyond that
  // is a mid-run re-sync, and both generations must show them.
  EXPECT_GT(one.run.wire.update_requests, 60u) << "no v3 mid-run re-syncs";
  EXPECT_GT(one.run.wire.v4_update_requests, 60u)
      << "no v4 mid-run re-syncs";
  // The update channel's exact frame bytes are accounted separately from
  // the full-hash traffic.
  EXPECT_GT(one.run.wire.update_bytes_up, 0u);
  EXPECT_GT(one.run.wire.update_bytes_down, 0u);
  EXPECT_LT(one.run.wire.update_bytes_up, one.run.wire.bytes_up);
  EXPECT_LT(one.run.wire.update_bytes_down, one.run.wire.bytes_down);
}

TEST(SimEngineChurnTest, EpochsMutateListsAndBumpSequences) {
  SimConfig config = churn_config(91);
  Engine engine(std::move(config));
  const std::uint64_t sequence_before = engine.server().chunk_sequence(kList);
  const std::size_t prefixes_before = engine.server().prefix_count(kList);
  engine.run();

  // 36 ticks, epochs at 6, 12, 18, 24, 30.
  EXPECT_EQ(engine.metrics().churn_events, 5u);
  EXPECT_EQ(engine.churn_epochs(), 5u);
  EXPECT_GT(engine.metrics().churn_adds, 0u);
  EXPECT_GT(engine.metrics().churn_removes, 0u);
  // Every epoch seals at least an add chunk: the v3 chunk / v4 state-token
  // sequence advanced at least once per epoch.
  EXPECT_GE(engine.server().chunk_sequence(kList), sequence_before + 5);
  // Net growth: add_rate > remove_rate.
  EXPECT_GT(engine.server().prefix_count(kList), prefixes_before);
}

TEST(SimEngineChurnTest, V4ClientsConvergeToPostEpochSet) {
  SimConfig config = churn_config(93);
  config.protocol = sb::ProtocolVersion::kV4Sliced;
  Engine engine(std::move(config));
  engine.run();
  ASSERT_GT(engine.metrics().churn_events, 0u);

  // The ground truth after the last epoch.
  const auto server_set = engine.server().prefixes(kList);
  const std::uint32_t server_checksum =
      storage::RawHashStore::checksum_of(server_set);
  const std::uint64_t server_sequence = engine.server().chunk_sequence(kList);

  for (const std::size_t u : {std::size_t{0}, std::size_t{17},
                              std::size_t{119}}) {
    auto* client =
        dynamic_cast<sb::V4SlicedProtocol*>(&engine.user_client(u));
    ASSERT_NE(client, nullptr);
    // One final incremental sync (the run may end between a user's
    // re-sync slots); after it the client must match the server exactly.
    (void)client->update();
    EXPECT_EQ(client->list_state(kList), server_sequence) << "user " << u;
    EXPECT_EQ(client->list_checksum(kList), server_checksum)
        << "user " << u << " did not converge to the post-epoch set";
    EXPECT_EQ(client->local_prefix_count(), server_set.size());
  }
}

TEST(SimEngineChurnTest, SharedStatesMatchFreshPrivateClients) {
  // The naive reference for shared sync states: after a churned mixed run,
  // a fresh client with no sync-state cache full-syncs from scratch and
  // must hold exactly the database of the user's incrementally synced,
  // shared-state client. Re-syncs come every epoch (the default cadence),
  // so the ticks after the last epoch (30..35) bring every user current.
  SimConfig config = churn_config(89);
  config.mix_protocol = sb::ProtocolVersion::kV4Sliced;
  config.mix_fraction = 0.5;
  config.num_threads = 4;
  Engine engine(config);
  std::set<crypto::Prefix32> universe;
  const auto add_listed = [&] {
    for (const auto& list : config.blacklist.lists) {
      for (const auto prefix : engine.server().prefixes(list)) {
        universe.insert(prefix);
      }
    }
  };
  add_listed();
  engine.run();
  ASSERT_GT(engine.metrics().churn_events, 0u);
  add_listed();
  const std::vector<crypto::Prefix32> probes(universe.begin(), universe.end());
  const auto answers = [&probes](const sb::ProtocolClient& client) {
    const auto flags = std::make_unique<bool[]>(probes.size());
    client.local_contains_many(probes,
                               std::span<bool>(flags.get(), probes.size()));
    return std::vector<bool>(flags.get(), flags.get() + probes.size());
  };

  sb::SimClock clock;
  sb::InProcessTransport transport(engine.server(), clock,
                                   /*round_trip_ticks=*/0);
  for (std::size_t u = 0; u < engine.num_users(); ++u) {
    const sb::ProtocolClient& shared = engine.user_client(u);
    sb::ClientConfig fresh_config;
    fresh_config.protocol = shared.version();
    fresh_config.store_kind = config.store_kind;
    fresh_config.bloom_bits = config.bloom_bits;
    const auto fresh = sb::make_protocol_client(transport, fresh_config);
    for (const auto& list : config.blacklist.lists) fresh->subscribe(list);
    ASSERT_TRUE(fresh->update());

    EXPECT_EQ(shared.local_prefix_count(), fresh->local_prefix_count())
        << "user " << u;
    if (const auto* v4 = dynamic_cast<const sb::V4SlicedProtocol*>(&shared)) {
      for (const auto& list : config.blacklist.lists) {
        EXPECT_EQ(v4->list_checksum(list),
                  dynamic_cast<const sb::V4SlicedProtocol&>(*fresh)
                      .list_checksum(list))
            << "user " << u << " list " << list;
      }
    }
    EXPECT_EQ(answers(shared), answers(*fresh)) << "user " << u;
  }
}

TEST(SimEngineChurnTest, TargetedInjectionBecomesObservableAndEvictsCache) {
  // Section 6 abuse: at epoch 2 (tick 12) the provider adds a
  // victim-specific prefix. Interested users visit the victim URL from
  // tick 0, so its per-shard cache entries are stamped "no listed prefix"
  // long before the injection -- only the stale-entry re-validation makes
  // the post-injection queries appear.
  SimConfig config = churn_config(95);
  config.traffic.target_urls = {"http://victim.example/"};
  config.traffic.interested_fraction = 0.25;
  config.traffic.target_visit_probability = 0.5;
  config.churn.injections = {{/*epoch=*/2, /*list=*/"",
                              /*expression=*/"victim.example/"}};
  Engine engine(std::move(config));
  InMemorySink sink;
  engine.attach_sink(&sink);
  engine.run();

  EXPECT_EQ(engine.metrics().injected_prefixes, 1u);
  EXPECT_GT(engine.metrics().url_cache_invalidations, 0u)
      << "no stale URL-cache entry was re-validated after an epoch";

  const crypto::Prefix32 victim = crypto::prefix32_of("victim.example/");
  std::set<sb::Cookie> queried;
  for (const auto& entry : sink.entries()) {
    if (std::find(entry.prefixes.begin(), entry.prefixes.end(), victim) ==
        entry.prefixes.end()) {
      continue;
    }
    EXPECT_GE(entry.tick, 12u)
        << "victim prefix observed before the injection epoch";
    queried.insert(entry.cookie);
  }
  ASSERT_FALSE(queried.empty())
      << "injection never surfaced in the query log";
  // Every observed cookie belongs to the interest group: the injection
  // surveils exactly the victims who browse the target.
  const auto interested = engine.interested_cookies();
  for (const auto cookie : queried) {
    EXPECT_TRUE(std::binary_search(interested.begin(), interested.end(),
                                   cookie));
  }
}

TEST(SimEngineChurnTest, FrozenWorldHasNoChurnTraffic) {
  SimConfig config = churn_config(97);
  config.churn = ChurnConfig{};  // epoch_ticks = 0: the pre-churn engine
  Engine engine(std::move(config));
  engine.run();
  EXPECT_EQ(engine.metrics().churn_events, 0u);
  EXPECT_EQ(engine.metrics().churn_updates, 0u);
  EXPECT_EQ(engine.metrics().url_cache_invalidations, 0u);
  // Only the construction-time syncs ever touched the update channel.
  EXPECT_EQ(engine.population_metrics().updates_attempted,
            engine.num_users());
}

}  // namespace
}  // namespace sbp::sim
