// Integration tests: full pipelines across modules, mirroring the paper's
// narrative -- protect (Fig 3), observe (Section 5-6), attack (6.3),
// forensically audit (7), mitigate (8).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "analysis/kanonymity.hpp"
#include "analysis/orphans.hpp"
#include "analysis/reidentify.hpp"
#include "mitigation/dummy_requests.hpp"
#include "sb/blacklist_factory.hpp"
#include "sb/client.hpp"
#include "sb/lookup_api.hpp"
#include "tracking/profile.hpp"
#include "tracking/shadow_db.hpp"
#include "tracking/user_population.hpp"

namespace sbp {
namespace {

TEST(EndToEndTest, ProtectionPipelineAtScale) {
  // Factory-built lists at small scale; a client must flag exactly the
  // blacklisted URLs and stay silent otherwise.
  sb::Server server;
  sb::BlacklistFactory factory(1);
  const auto truth =
      factory.populate(server, {"goog-malware-shavar", 500, 0.0, 0, 0});

  sb::SimClock clock;
  sb::InProcessTransport transport(server, clock);
  sb::ClientConfig config;
  config.cookie = 7;
  sb::Client client(transport, config);
  client.subscribe("goog-malware-shavar");
  client.update();
  EXPECT_EQ(client.local_prefix_count(), 500u);

  // Every ground-truth expression must be flagged.
  std::size_t checked = 0;
  for (const auto& expression : truth.expressions) {
    if (++checked > 50) break;  // sample
    const auto result = client.lookup("http://" + expression);
    EXPECT_EQ(result.verdict, sb::Verdict::kMalicious) << expression;
  }
  // Fresh URLs must be safe and silent.
  const auto before = server.query_log().size();
  for (int i = 0; i < 50; ++i) {
    const auto result =
        client.lookup("http://clean" + std::to_string(i) + ".example/");
    EXPECT_EQ(result.verdict, sb::Verdict::kSafe);
  }
  // A clean URL can only contact the server on a 2^-32 prefix accident.
  EXPECT_LE(server.query_log().size(), before + 1);
}

TEST(EndToEndTest, UpdateChurnKeepsClientConsistent) {
  // Entries come and go via chunks; the client tracks the server exactly.
  sb::Server server;
  sb::SimClock clock;
  sb::InProcessTransport transport(server, clock);
  sb::ClientConfig config;
  sb::Client client(transport, config);
  client.subscribe("list");

  std::vector<std::string> live;
  util::Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    // Add 5 new, remove 2 oldest (if any).
    for (int i = 0; i < 5; ++i) {
      const std::string expression =
          "churn" + std::to_string(round * 5 + i) + ".example/";
      server.add_expression("list", expression);
      live.push_back(expression);
    }
    server.seal_chunk("list");
    for (int i = 0; i < 2 && live.size() > 2; ++i) {
      server.remove_expression("list", live.front());
      live.erase(live.begin());
    }
    client.update();

    EXPECT_EQ(client.local_prefix_count(), live.size()) << "round " << round;
    for (const auto& expression : live) {
      EXPECT_EQ(client.lookup("http://" + expression).verdict,
                sb::Verdict::kMalicious)
          << expression;
    }
  }
}

TEST(EndToEndTest, SurveillancePipeline) {
  // Blacklists + tracking plans + population + profiles: the full paper.
  sb::Server server(sb::Provider::kYandex);
  sb::BlacklistFactory factory(3);
  factory.populate(server, {"ydx-porno-hosts-top-shavar", 50, 0.0, 0, 0});
  server.add_expression("ydx-porno-hosts-top-shavar", "adult-site.example/");
  server.seal_chunk("ydx-porno-hosts-top-shavar");

  sb::SimClock clock;
  sb::InProcessTransport transport(server, clock);

  tracking::PopulationConfig population;
  population.num_users = 30;
  population.interested_fraction = 0.3;
  population.seed = 11;
  const auto users = tracking::make_population(
      population, {"http://adult-site.example/gallery/1"},
      {"http://wiki.example/math", "http://news.example/"});
  const auto outcome = tracking::replay_population(
      users, transport, {"ydx-porno-hosts-top-shavar"});

  // Profiles: every interested user (and only they) carries the trait.
  const auto profiles = tracking::build_profiles(server);
  const auto flagged = tracking::users_with_trait(
      profiles, "ydx-porno-hosts-top-shavar", 1);
  const std::set<sb::Cookie> flagged_set(flagged.begin(), flagged.end());
  const std::set<sb::Cookie> truth(outcome.interested_cookies.begin(),
                                   outcome.interested_cookies.end());
  EXPECT_EQ(flagged_set, truth);
  EXPECT_FALSE(truth.empty());
}

TEST(EndToEndTest, ForensicCrawlDumpReload) {
  // Crawl a provider, checkpoint its database, restore it offline, and run
  // the orphan census on the copy -- the Section 7 workflow.
  sb::Server provider(sb::Provider::kYandex);
  sb::BlacklistFactory factory(5);
  factory.populate(provider, {"ydx-phish-shavar", 200, 0.99, 0, 0});
  factory.populate(provider, {"ydx-malware-shavar", 300, 0.015, 3, 2});

  const auto snapshot = provider.checkpoint_bytes();
  sb::Server offline;
  std::string error;
  ASSERT_TRUE(offline.restore_bytes(snapshot, &error)) << error;

  const auto censuses = analysis::census_all(offline);
  ASSERT_EQ(censuses.size(), 2u);
  for (const auto& census : censuses) {
    const auto original = analysis::census_list(provider, census.list_name);
    EXPECT_EQ(census.orphans, original.orphans);
    EXPECT_EQ(census.total_prefixes, original.total_prefixes);
    EXPECT_EQ(census.two_digest, original.two_digest);
  }
}

TEST(EndToEndTest, ReidentificationFromLiveTraffic) {
  // A user's real lookup traffic, inverted through the web index: the
  // candidate set must contain the true URL.
  sb::Server server;
  server.add_expression("list", "watched.example/secret/page.html");
  server.add_expression("list", "watched.example/");
  server.seal_chunk("list");

  sb::SimClock clock;
  sb::InProcessTransport transport(server, clock);
  sb::ClientConfig config;
  config.cookie = 0xBEEF;
  sb::Client client(transport, config);
  client.subscribe("list");
  client.update();
  const auto lookup =
      client.lookup("http://watched.example/secret/page.html");
  ASSERT_EQ(lookup.sent_prefixes.size(), 2u);

  analysis::ReidentificationIndex index;
  index.add_url("http://watched.example/secret/page.html");
  index.add_url("http://watched.example/public/other.html");
  index.add_url("http://unrelated.example/");
  const auto result = index.reidentify(lookup.sent_prefixes);
  ASSERT_TRUE(result.unique());
  EXPECT_EQ(result.candidate_urls[0], "watched.example/secret/page.html");
}

TEST(EndToEndTest, DummyPaddingDoesNotChangeVerdicts) {
  // Mitigation sanity: padding requests with dummies must not alter what
  // the client concludes (the dummies resolve to nothing).
  sb::Server server;
  server.add_expression("list", "evil.example/x.html");
  server.seal_chunk("list");
  sb::SimClock clock;
  sb::InProcessTransport transport(server, clock);

  const mitigation::DummyPolicy policy(8);
  const auto real = crypto::prefix32_of("evil.example/x.html");
  const auto padded = policy.pad_request({real});
  const auto response = transport.get_full_hashes_or_error(padded, 1);
  ASSERT_TRUE(response);
  // Only the real prefix resolves to a digest.
  std::size_t resolved = 0;
  for (const auto& [prefix, matches] : response->matches) {
    if (!matches.empty()) {
      ++resolved;
      EXPECT_EQ(prefix, real);
    }
  }
  EXPECT_EQ(resolved, 1u);
}

TEST(EndToEndTest, V1VersusV3InformationAsymmetry) {
  // Quantify the privacy difference the paper opens with: v1 logs full
  // URLs for EVERY check; v3 logs nothing for clean URLs. Both now land in
  // the same query log, distinguished by the url field.
  sb::Server server;
  server.add_expression("list", "evil.example/");
  server.seal_chunk("list");
  sb::SimClock clock;
  sb::InProcessTransport transport(server, clock);
  sb::ClientConfig v1_config;
  v1_config.protocol = sb::ProtocolVersion::kV1Lookup;
  v1_config.cookie = 1;
  sb::V1LookupProtocol v1(transport, v1_config);
  sb::ClientConfig config;
  sb::Client v3(transport, config);
  v3.subscribe("list");
  v3.update();

  const std::vector<std::string> browsing = {
      "http://private-diary.example/entry/2015-02-14",
      "http://clinic.example/appointments?id=77",
      "http://evil.example/drive-by",
  };
  for (const auto& url : browsing) {
    (void)v1.lookup(url);
    (void)v3.lookup(url);
  }
  std::size_t v1_entries = 0, v3_entries = 0;
  for (const auto& entry : server.query_log()) {
    entry.url.empty() ? ++v3_entries : ++v1_entries;
  }
  EXPECT_EQ(v1_entries, 3u);  // every URL, in clear
  EXPECT_EQ(v3_entries, 1u);  // only the real hit
}

TEST(EndToEndTest, KAnonymityOfActualTraffic) {
  // The k-anonymity the server sees for a real single-prefix query equals
  // the index's candidate count -- tie the two modules together.
  analysis::KAnonymityIndex index(32);
  index.add_expression("a.example/");
  index.add_expression("b.example/");
  const auto k = index.k_of_expression("a.example/");
  EXPECT_EQ(k, 1u);  // scaled index: unique -- the paper's domain case
}

}  // namespace
}  // namespace sbp
