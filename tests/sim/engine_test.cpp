#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "corpus/web_corpus.hpp"
#include "crypto/digest.hpp"
#include "sim/log_sink.hpp"
#include "tracking/aggregator.hpp"
#include "util/rng.hpp"

namespace sbp::sim {
namespace {

/// A population small enough for fast tests but busy enough that the
/// server sees real traffic (aggressive blacklist fractions).
SimConfig small_config(std::uint64_t seed) {
  SimConfig config;
  config.num_users = 120;
  config.ticks = 25;
  config.num_shards = 4;
  config.seed = seed;
  config.corpus.num_hosts = 800;
  config.corpus.seed = seed;
  config.corpus.max_pages = 200;
  config.blacklist.page_fraction = 0.05;
  config.blacklist.site_fraction = 0.01;
  config.traffic.session_start_probability = 0.3;
  config.traffic.session_continue_probability = 0.7;
  return config;
}

TEST(SimEngineTest, SameSeedProducesIdenticalQueryLog) {
  InMemorySink log_a, log_b;
  {
    Engine engine(small_config(7));
    engine.attach_sink(&log_a);
    engine.run();
  }
  {
    Engine engine(small_config(7));
    engine.attach_sink(&log_b);
    engine.run();
  }
  ASSERT_FALSE(log_a.entries().empty()) << "population generated no queries";
  EXPECT_EQ(log_a.entries(), log_b.entries());
  EXPECT_EQ(fingerprint_log(log_a.entries()), fingerprint_log(log_b.entries()));
}

TEST(SimEngineTest, DifferentSeedsDiverge) {
  InMemorySink log_a, log_b;
  {
    Engine engine(small_config(1));
    engine.attach_sink(&log_a);
    engine.run();
  }
  {
    Engine engine(small_config(2));
    engine.attach_sink(&log_b);
    engine.run();
  }
  ASSERT_FALSE(log_a.entries().empty());
  ASSERT_FALSE(log_b.entries().empty());
  EXPECT_NE(fingerprint_log(log_a.entries()),
            fingerprint_log(log_b.entries()));
}

TEST(SimEngineTest, StreamingSinkMatchesRetainedInMemoryLog) {
  Engine engine(small_config(11));
  InMemorySink sink;
  engine.attach_sink(&sink, /*retain_in_memory=*/true);
  engine.run();
  ASSERT_FALSE(sink.entries().empty());
  EXPECT_EQ(sink.entries(), engine.server().query_log());
}

TEST(SimEngineTest, DetachedRetentionKeepsServerLogEmpty) {
  Engine engine(small_config(11));
  CountingSink sink;
  engine.attach_sink(&sink, /*retain_in_memory=*/false);
  engine.run();
  EXPECT_GT(sink.entries(), 0u);
  EXPECT_TRUE(engine.server().query_log().empty());
}

TEST(SimEngineTest, CountingSinkFingerprintMatchesInMemoryLog) {
  Engine engine(small_config(13));
  InMemorySink memory;
  CountingSink counting;
  FanoutSink fanout({&memory, &counting});
  engine.attach_sink(&fanout);
  engine.run();
  ASSERT_FALSE(memory.entries().empty());
  EXPECT_EQ(counting.entries(), memory.entries().size());
  EXPECT_EQ(counting.fingerprint(), fingerprint_log(memory.entries()));
}

TEST(SimEngineTest, ChurnRefreshesListsAndResyncsUsers) {
  SimConfig config = small_config(17);
  config.churn.epoch_ticks = 5;
  config.churn.add_rate = 0.10;
  config.churn.remove_rate = 0.05;
  Engine engine(std::move(config));
  engine.run();
  EXPECT_EQ(engine.metrics().churn_events, 4u);  // ticks 5, 10, 15, 20
  EXPECT_GT(engine.metrics().churn_adds, 0u);
  EXPECT_GT(engine.metrics().churn_removes, 0u);
  EXPECT_GT(engine.metrics().churn_updates, 0u);
  // Every user updated once at construction, plus the scheduled re-syncs
  // (the engine only polls clients whose minimum-wait timer expired, so
  // every attempt is a real wire update -- none are suppressed).
  const auto population = engine.population_metrics();
  EXPECT_EQ(population.updates_attempted,
            engine.num_users() + engine.metrics().churn_updates);
  EXPECT_EQ(population.backoff_suppressed, 0u);
}

TEST(SimEngineTest, DummyRequestMitigationPadsEveryWireRequest) {
  SimConfig config = small_config(19);
  config.mitigation.dummy_requests = true;
  config.mitigation.dummies_per_prefix = 4;
  Engine engine(std::move(config));
  InMemorySink sink;
  engine.attach_sink(&sink);
  engine.run();
  ASSERT_FALSE(sink.entries().empty());
  for (const auto& entry : sink.entries()) {
    // Each real prefix is accompanied by 4 deterministic dummies.
    EXPECT_GE(entry.prefixes.size(), 5u);
  }

  // The mitigated engine stays deterministic.
  SimConfig config_b = small_config(19);
  config_b.mitigation.dummy_requests = true;
  config_b.mitigation.dummies_per_prefix = 4;
  Engine engine_b(std::move(config_b));
  InMemorySink sink_b;
  engine_b.attach_sink(&sink_b);
  engine_b.run();
  EXPECT_EQ(sink.entries(), sink_b.entries());
}

TEST(SimEngineTest, InterestGroupQueriesDeployedTargets) {
  SimConfig config = small_config(23);
  config.traffic.target_urls = {"http://target.example/"};
  config.traffic.interested_fraction = 0.25;
  config.traffic.target_visit_probability = 0.5;
  config.server_setup = [](sb::Server& server) {
    server.add_expression("goog-malware-shavar", "target.example/");
  };
  Engine engine(std::move(config));
  InMemorySink sink;
  engine.attach_sink(&sink);
  engine.run();

  const auto interested = engine.interested_cookies();
  EXPECT_EQ(interested.size(), 30u);  // exact spread of 0.25 * 120
  const crypto::Prefix32 target = crypto::prefix32_of("target.example/");
  std::set<sb::Cookie> queried;
  for (const auto& entry : sink.entries()) {
    if (std::find(entry.prefixes.begin(), entry.prefixes.end(), target) !=
        entry.prefixes.end()) {
      queried.insert(entry.cookie);
    }
  }
  ASSERT_FALSE(queried.empty());
  EXPECT_GT(engine.metrics().target_visits, 0u);
  for (const auto cookie : queried) {
    EXPECT_TRUE(std::binary_search(interested.begin(), interested.end(),
                                   cookie))
        << "cookie " << cookie << " queried the target but is not interested";
  }
}

TEST(SimEngineTest, V4PopulationRunsDeterministically) {
  // Acceptance criterion: a sim configured with V4SlicedProtocol completes
  // end-to-end with bit-identical logs across repeated same-seed runs.
  auto v4_config = [] {
    SimConfig config = small_config(31);
    config.protocol = sb::ProtocolVersion::kV4Sliced;
    config.churn.epoch_ticks = 5;
    return config;
  };
  InMemorySink log_a, log_b;
  {
    Engine engine(v4_config());
    engine.attach_sink(&log_a);
    engine.run();
  }
  {
    Engine engine(v4_config());
    engine.attach_sink(&log_b);
    engine.run();
  }
  ASSERT_FALSE(log_a.entries().empty()) << "v4 population generated no queries";
  EXPECT_EQ(log_a.entries(), log_b.entries());
  EXPECT_EQ(fingerprint_log(log_a.entries()),
            fingerprint_log(log_b.entries()));
}

TEST(SimEngineTest, V4PopulationObservationsMatchV3) {
  // The engine-level equivalence: identical config except the protocol
  // generation produces the identical query log (same wire-visible hits).
  InMemorySink v3_log, v4_log;
  {
    Engine engine(small_config(33));
    engine.attach_sink(&v3_log);
    engine.run();
  }
  {
    SimConfig config = small_config(33);
    config.protocol = sb::ProtocolVersion::kV4Sliced;
    Engine engine(std::move(config));
    engine.attach_sink(&v4_log);
    engine.run();
  }
  ASSERT_FALSE(v3_log.entries().empty());
  EXPECT_EQ(v3_log.entries(), v4_log.entries());
}

TEST(SimEngineTest, V1PopulationLogsEveryBrowsedUrl) {
  SimConfig config = small_config(37);
  config.protocol = sb::ProtocolVersion::kV1Lookup;
  Engine engine(std::move(config));
  CountingSink sink;
  engine.attach_sink(&sink, /*retain_in_memory=*/false);
  engine.run();
  // v1 has no local-store prefilter: every valid browsed URL reaches the
  // server (the paper's "URLs in clear" baseline at population scale).
  EXPECT_GT(sink.entries(), 0u);
  EXPECT_GE(engine.metrics().lookups, sink.entries());
  EXPECT_EQ(engine.metrics().local_hit_lookups, sink.entries());
}

TEST(SimEngineTest, MixedProtocolPopulationIsDeterministic) {
  auto mixed_config = [] {
    SimConfig config = small_config(41);
    config.protocol = sb::ProtocolVersion::kV3Chunked;
    config.mix_protocol = sb::ProtocolVersion::kV4Sliced;
    config.mix_fraction = 0.5;
    return config;
  };
  InMemorySink log_a, log_b;
  {
    Engine engine(mixed_config());
    engine.attach_sink(&log_a);
    engine.run();
  }
  {
    Engine engine(mixed_config());
    engine.attach_sink(&log_b);
    engine.run();
  }
  ASSERT_FALSE(log_a.entries().empty());
  EXPECT_EQ(log_a.entries(), log_b.entries());
}

TEST(SimEngineTest, AggregatorSinkMatchesBatchCorrelate) {
  SimConfig config = small_config(29);
  config.traffic.target_urls = {"http://target-a.example/",
                                "http://target-b.example/"};
  config.traffic.interested_fraction = 0.3;
  config.traffic.target_visit_probability = 0.5;
  config.server_setup = [](sb::Server& server) {
    server.add_expression("goog-malware-shavar", "target-a.example/");
    server.add_expression("goog-malware-shavar", "target-b.example/");
  };

  tracking::CorrelationRule unordered;
  unordered.label = "visits both targets";
  unordered.prefixes = {crypto::prefix32_of("target-a.example/"),
                        crypto::prefix32_of("target-b.example/")};
  unordered.window_ticks = 10;
  tracking::CorrelationRule ordered = unordered;
  ordered.label = "a then b";
  ordered.ordered = true;
  const std::vector<tracking::CorrelationRule> rules = {unordered, ordered};

  Engine engine(std::move(config));
  InMemorySink memory;
  AggregatorSink aggregator(rules);
  FanoutSink fanout({&memory, &aggregator});
  engine.attach_sink(&fanout);
  engine.run();

  const auto batch = tracking::correlate(memory.entries(), rules);
  const auto key = [](const tracking::CorrelationHit& hit) {
    return std::make_pair(hit.label, hit.cookie);
  };
  std::set<std::pair<std::string, sb::Cookie>> batch_hits, stream_hits;
  for (const auto& hit : batch) batch_hits.insert(key(hit));
  for (const auto& hit : aggregator.hits()) stream_hits.insert(key(hit));
  ASSERT_FALSE(batch_hits.empty())
      << "no correlation fired; weaken the rule window";
  EXPECT_EQ(stream_hits, batch_hits);
}

/// The blacklist seed drawn the way Engine::seed_blacklist drew it before
/// it generated only site prefixes: every site with a pick generated whole
/// through WebCorpus::site(), its picked pages' expressions listed round-
/// robin, then each list's orphans. Also returns, in `prefix_pages`, the
/// pages a generator that stops at each site's last pick writes.
std::map<std::string, std::set<crypto::Prefix32>> reference_seed(
    const SimConfig& config, std::uint64_t& prefix_pages) {
  const BlacklistConfig& blacklist = config.blacklist;
  std::uint64_t state = config.seed ^ 0xB1AC1157B1AC1157ULL;
  util::Rng rng(util::splitmix64(state));
  const corpus::WebCorpus corpus(config.corpus);
  std::map<std::string, std::set<crypto::Prefix32>> lists;
  std::size_t entries = 0;
  std::size_t round_robin = 0;
  const auto add = [&](const std::string& expression) {
    lists[blacklist.lists[round_robin++ % blacklist.lists.size()]].insert(
        crypto::prefix32_of(expression));
    ++entries;
  };
  prefix_pages = 0;
  for (std::size_t s = 0;
       s < corpus.num_hosts() && entries < blacklist.max_entries; ++s) {
    if (blacklist.site_fraction > 0.0 &&
        rng.next_bool(blacklist.site_fraction)) {
      add(corpus.site_domain(s) + "/");
      if (entries >= blacklist.max_entries) break;
    }
    const std::uint64_t count = corpus.site_page_count(s);
    const double expected =
        static_cast<double>(count) * blacklist.page_fraction;
    std::uint64_t k = static_cast<std::uint64_t>(expected);
    if (rng.next_bool(expected - static_cast<double>(k))) ++k;
    k = std::min({k, count,
                  static_cast<std::uint64_t>(blacklist.max_entries - entries)});
    if (k == 0) continue;
    const corpus::Site site = corpus.site(s);
    std::vector<std::uint32_t> pages(site.pages.size());
    std::iota(pages.begin(), pages.end(), 0);
    std::uint32_t last = 0;
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::size_t j = i + rng.next_below(pages.size() - i);
      std::swap(pages[i], pages[j]);
      add(site.pages[pages[i]].expression());
      last = std::max(last, pages[i]);
    }
    prefix_pages += last + 1;
  }
  for (const auto& list : blacklist.lists) {
    for (std::size_t i = 0; i < blacklist.orphan_prefixes; ++i) {
      lists[list].insert(static_cast<crypto::Prefix32>(rng.next()));
    }
  }
  return lists;
}

TEST(SimEngineTest, SeedFromSitePrefixesMatchesWholeSiteSeed) {
  SimConfig two_lists = small_config(31);
  two_lists.blacklist.lists = {"goog-malware-shavar", "goog-phish-shavar"};
  two_lists.blacklist.site_fraction = 0.05;
  two_lists.blacklist.orphan_prefixes = 3;
  SimConfig dense = small_config(32);  // k > 1 on most sites
  dense.blacklist.page_fraction = 0.3;
  dense.blacklist.site_fraction = 0.0;
  SimConfig capped = small_config(33);  // the cap falls inside a site
  capped.blacklist.page_fraction = 0.2;
  capped.blacklist.max_entries = 777;
  capped.corpus = corpus::CorpusConfig::alexa_like(800, 33);
  capped.corpus.max_pages = 3000;

  for (const SimConfig& config : {two_lists, dense, capped}) {
    SCOPED_TRACE(config.seed);
    std::uint64_t prefix_pages = 0;
    const auto want = reference_seed(config, prefix_pages);
    const Engine engine(config);
    std::size_t listed = 0;
    for (const auto& list : config.blacklist.lists) {
      ASSERT_TRUE(want.contains(list)) << list;
      const std::set<crypto::Prefix32>& expected = want.at(list);
      EXPECT_EQ(engine.server().prefixes(list),
                std::vector<crypto::Prefix32>(expected.begin(),
                                              expected.end()))
          << list;
      listed += expected.size();
    }
    EXPECT_GT(listed, config.blacklist.lists.size() * 50);
    // Setup generated only each picked site's prefix.
    EXPECT_EQ(engine.metrics().corpus_pages_generated, prefix_pages);
  }
}

}  // namespace
}  // namespace sbp::sim
