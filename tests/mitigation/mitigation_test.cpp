#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "mitigation/dummy_requests.hpp"
#include "mitigation/one_prefix.hpp"
#include "tracking/shadow_db.hpp"

namespace sbp::mitigation {
namespace {

TEST(DummyPolicyTest, Deterministic) {
  const DummyPolicy policy(4);
  EXPECT_EQ(policy.dummies_for(0xe70ee6d1), policy.dummies_for(0xe70ee6d1));
  EXPECT_NE(policy.dummies_for(0xe70ee6d1), policy.dummies_for(0x1d13ba6a));
}

TEST(DummyPolicyTest, PadGrowsRequest) {
  const DummyPolicy policy(4);
  const auto padded = policy.pad_request({0xe70ee6d1});
  EXPECT_EQ(padded.size(), 5u);  // 1 real + 4 dummies (collision-free here)
  EXPECT_TRUE(std::is_sorted(padded.begin(), padded.end()));
  EXPECT_TRUE(std::find(padded.begin(), padded.end(), 0xe70ee6d1u) !=
              padded.end());
}

TEST(DummyPolicyTest, RepeatQueriesIndistinguishable) {
  // Differential-analysis defence: the padded set for a prefix never varies.
  const DummyPolicy policy(8);
  EXPECT_EQ(policy.pad_request({42}), policy.pad_request({42}));
}

TEST(DummyPolicyTest, KAnonymityGainIsRequestSize) {
  // For a single real prefix, the server's candidate set grows from 1 real
  // prefix to 1 + count prefixes.
  for (unsigned count : {1u, 4u, 16u}) {
    const DummyPolicy policy(count);
    EXPECT_EQ(policy.pad_request({7}).size(), count + 1);
  }
}

TEST(DummyPolicyTest, AccidentalPairProbabilityNegligible) {
  // The paper: "the probability that two given prefixes are included in the
  // same request as dummies is negligible."
  EXPECT_LT(accidental_pair_probability(4), 1e-18);
  EXPECT_LT(accidental_pair_probability(100), 1e-15);
  EXPECT_GT(accidental_pair_probability(4), 0.0);
}

TEST(DummyPolicyTest, MultiPrefixReidentificationSurvivesDummies) {
  // Deploy a 2-prefix tracking plan; pad requests with dummies; the shadow
  // detector STILL fires because both real prefixes co-occur.
  const corpus::DomainHierarchy hierarchy({
      "http://target.example/page.html",
      "http://target.example/other.html",
  });
  const tracking::TrackingPlan plan = tracking::plan_tracking(
      "http://target.example/page.html", hierarchy, 2);
  tracking::ShadowDatabase shadow;
  shadow.add_plan(plan);

  const DummyPolicy policy(4);
  std::vector<sb::QueryLogEntry> log;
  log.push_back({10, 77, policy.pad_request(plan.track_prefixes), {}});
  const auto detections = shadow.detect(log);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].cookie, 77u);
}

class OnePrefixTest : public ::testing::Test {
 protected:
  OnePrefixTest() : transport_(server_, clock_) {
    // The tracking shape of Section 6.3: the target URL's digest is real,
    // but the domain-root prefix is an injected orphan (no digest) -- so a
    // root-first query stays inconclusive and the client must decide about
    // escalation. evil.example/ is an honestly blacklisted domain.
    server_.add_expression("list", "tracked.example/dir/page.html");
    server_.add_orphan_prefix("list",
                              crypto::prefix32_of("tracked.example/"));
    server_.add_expression("list", "evil.example/");
    server_.seal_chunk("list");
  }

  sb::Server server_;
  sb::SimClock clock_;
  sb::InProcessTransport transport_;
};

TEST_F(OnePrefixTest, RootQueryResolvesDomainBlacklist) {
  sb::ClientConfig config;
  config.cookie = 5;
  OnePrefixClient client(transport_, config);
  client.subscribe("list");
  ASSERT_TRUE(client.update());

  const auto result = client.lookup("http://evil.example/any/page", {});
  EXPECT_EQ(result.verdict, sb::Verdict::kMalicious);
  EXPECT_TRUE(result.resolved_by_root_query);
  EXPECT_EQ(result.sent_prefixes.size(), 1u);  // only the root prefix left
}

TEST_F(OnePrefixTest, EscalationSuppressedWithoutTypeI) {
  // The target URL hits 2 prefixes but the pre-fetch crawl finds no Type I
  // URLs: escalation would uniquely identify the URL, so it is suppressed.
  sb::ClientConfig config;
  config.cookie = 6;
  OnePrefixClient client(transport_, config);
  client.subscribe("list");
  ASSERT_TRUE(client.update());

  const auto result = client.lookup(
      "http://tracked.example/dir/page.html",
      {"http://tracked.example/dir/page.html"});  // crawl: only itself
  EXPECT_TRUE(result.escalation_suppressed);
  EXPECT_EQ(result.sent_prefixes.size(), 1u);  // root only: leak reduced
}

TEST_F(OnePrefixTest, EscalationAllowedWithTypeI) {
  sb::ClientConfig config;
  config.cookie = 7;
  OnePrefixClient client(transport_, config);
  client.subscribe("list");
  ASSERT_TRUE(client.update());

  // Crawl finds a sibling page in the same directory -> Type I cover
  // exists -> escalation is privacy-acceptable (server learns the domain,
  // not the URL).
  const auto result = client.lookup(
      "http://tracked.example/dir/page.html",
      {"http://tracked.example/dir/page.html",
       "http://tracked.example/dir/sibling.html"});
  EXPECT_FALSE(result.escalation_suppressed);
  EXPECT_EQ(result.verdict, sb::Verdict::kMalicious);
  EXPECT_GE(result.sent_prefixes.size(), 2u);
}

TEST_F(OnePrefixTest, SafeUrlSendsNothing) {
  sb::ClientConfig config;
  OnePrefixClient client(transport_, config);
  client.subscribe("list");
  ASSERT_TRUE(client.update());
  const auto result = client.lookup("http://benign.example/", {});
  EXPECT_EQ(result.verdict, sb::Verdict::kSafe);
  EXPECT_TRUE(result.sent_prefixes.empty());
}

TEST_F(OnePrefixTest, LookupSendsNoUpdateRequest) {
  // update() syncs the local database once; a lookup only reads it, and
  // its one wire request is the root prefix's full-hash query.
  sb::ClientConfig config;
  OnePrefixClient client(transport_, config);
  client.subscribe("list");
  ASSERT_TRUE(client.update());
  const std::uint64_t updates = transport_.stats().update_requests;
  EXPECT_EQ(client.lookup("http://evil.example/any/page", {}).verdict,
            sb::Verdict::kMalicious);
  EXPECT_EQ(client.lookup("http://benign.example/", {}).verdict,
            sb::Verdict::kSafe);
  EXPECT_EQ(transport_.stats().update_requests, updates);
  EXPECT_EQ(transport_.stats().full_hash_requests, 1u);
}

TEST_F(OnePrefixTest, FailedFullHashRequestFailsOpenUnconfirmed) {
  // A network error on the root query: like the stock client, the lookup
  // fails open with the unconfirmed flag, and the prefix that never
  // reached the server is not counted as sent.
  sb::ClientConfig stock_config;
  stock_config.cookie = 8;
  sb::Client stock(transport_, stock_config);
  stock.subscribe("list");
  ASSERT_TRUE(stock.update());
  transport_.inject_full_hash_failures(1);
  const auto stock_result = stock.lookup("http://evil.example/any/page");
  EXPECT_EQ(stock_result.verdict, sb::Verdict::kSafe);
  EXPECT_TRUE(stock_result.unconfirmed);
  EXPECT_TRUE(stock_result.sent_prefixes.empty());

  sb::ClientConfig config;
  config.cookie = 9;
  OnePrefixClient client(transport_, config);
  client.subscribe("list");
  ASSERT_TRUE(client.update());
  server_.clear_query_log();
  transport_.inject_full_hash_failures(1);
  const auto failed = client.lookup("http://evil.example/any/page", {});
  EXPECT_EQ(failed.verdict, sb::Verdict::kSafe);
  EXPECT_TRUE(failed.unconfirmed);
  EXPECT_TRUE(failed.sent_prefixes.empty());
  EXPECT_FALSE(failed.resolved_by_root_query);
  EXPECT_TRUE(server_.query_log().empty());

  // The failure was one request: the next lookup reaches the server.
  const auto retried = client.lookup("http://evil.example/any/page", {});
  EXPECT_EQ(retried.verdict, sb::Verdict::kMalicious);
  EXPECT_FALSE(retried.unconfirmed);
  EXPECT_EQ(retried.sent_prefixes.size(), 1u);
}

TEST_F(OnePrefixTest, LeakReductionVsStockClient) {
  // Stock client sends both hit prefixes at once; the mitigated client
  // sends only one for the no-Type-I case.
  server_.clear_query_log();

  sb::ClientConfig stock_config;
  stock_config.cookie = 100;
  sb::Client stock(transport_, stock_config);
  stock.subscribe("list");
  stock.update();
  const auto stock_result =
      stock.lookup("http://tracked.example/dir/page.html");
  EXPECT_EQ(stock_result.sent_prefixes.size(), 2u);

  sb::ClientConfig mitigated_config;
  mitigated_config.cookie = 101;
  OnePrefixClient mitigated(transport_, mitigated_config);
  mitigated.subscribe("list");
  ASSERT_TRUE(mitigated.update());
  const auto mitigated_result = mitigated.lookup(
      "http://tracked.example/dir/page.html",
      {"http://tracked.example/dir/page.html"});
  EXPECT_LT(mitigated_result.sent_prefixes.size(),
            stock_result.sent_prefixes.size());
}

}  // namespace
}  // namespace sbp::mitigation
