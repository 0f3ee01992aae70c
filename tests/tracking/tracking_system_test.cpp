// End-to-end tests of the Section 6.3 tracking system: shadow database,
// user population, detection, and temporal correlation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sb/blacklist_factory.hpp"
#include "tracking/aggregator.hpp"
#include "tracking/shadow_db.hpp"
#include "tracking/user_population.hpp"

namespace sbp::tracking {
namespace {

class TrackingSystemTest : public ::testing::Test {
 protected:
  TrackingSystemTest() : transport_(server_, clock_) {
    // Background noise entries so the list is not only shadow prefixes.
    sb::BlacklistFactory factory(100);
    factory.populate(server_, {"goog-malware-shavar", 50, 0.0, 0, 0});
  }

  sb::Server server_;
  sb::SimClock clock_;
  sb::InProcessTransport transport_;
};

TEST_F(TrackingSystemTest, DetectsInterestedUsersExactly) {
  // Deploy a plan for the PETS CFP page.
  const corpus::DomainHierarchy hierarchy({
      "https://petsymposium.org/2016/",
      "https://petsymposium.org/2016/cfp.php",
      "https://petsymposium.org/2016/links.php",
  });
  const TrackingPlan plan = plan_tracking(
      "https://petsymposium.org/2016/cfp.php", hierarchy, 2);
  ShadowDatabase shadow;
  shadow.deploy(plan, server_, "goog-malware-shavar");

  // Population: interested users visit the CFP page.
  PopulationConfig config;
  config.num_users = 40;
  config.interested_fraction = 0.25;
  config.seed = 7;
  std::vector<std::string> background = {
      "http://news.example/today.html",
      "http://mail.example/inbox",
      "http://shop.example/cart",
  };
  const auto users = make_population(
      config, {"https://petsymposium.org/2016/cfp.php"}, background);
  const auto outcome =
      replay_population(users, transport_, {"goog-malware-shavar"});

  const auto detections = shadow.detect(server_.query_log());

  // Every interested user is detected; nobody else is.
  std::set<sb::Cookie> detected;
  for (const auto& d : detections) {
    EXPECT_EQ(d.target_url, "https://petsymposium.org/2016/cfp.php");
    detected.insert(d.cookie);
  }
  const std::set<sb::Cookie> truth(outcome.interested_cookies.begin(),
                                   outcome.interested_cookies.end());
  EXPECT_EQ(detected, truth);
  EXPECT_FALSE(truth.empty());
}

TEST_F(TrackingSystemTest, UninterestedUsersProduceNoDetections) {
  const corpus::DomainHierarchy hierarchy({"http://target.example/page"});
  const TrackingPlan plan =
      plan_tracking("http://target.example/page", hierarchy, 2);
  ShadowDatabase shadow;
  shadow.deploy(plan, server_, "goog-malware-shavar");

  PopulationConfig config;
  config.num_users = 20;
  config.interested_fraction = 0.0;
  config.seed = 9;
  const auto users = make_population(config, {"http://target.example/page"},
                                     {"http://benign.example/"});
  (void)replay_population(users, transport_, {"goog-malware-shavar"});
  EXPECT_TRUE(shadow.detect(server_.query_log()).empty());
}

TEST_F(TrackingSystemTest, SingleShadowPrefixAloneDoesNotFire) {
  // A query containing only ONE shadow prefix must not trigger detection
  // (the >= 2 rule protects against domain-level coincidences).
  const corpus::DomainHierarchy hierarchy({
      "http://t.example/dir/page.html",
      "http://t.example/other.html",
  });
  const TrackingPlan plan =
      plan_tracking("http://t.example/dir/page.html", hierarchy, 2);
  ShadowDatabase shadow;
  shadow.deploy(plan, server_, "goog-malware-shavar");

  // Visit only the domain root -- its prefix (t.example/) is in the shadow
  // DB, but alone.
  sb::ClientConfig config;
  config.cookie = 1234;
  sb::Client client(transport_, config);
  client.subscribe("goog-malware-shavar");
  client.update();
  (void)client.lookup("http://t.example/other.html");

  for (const auto& d : shadow.detect(server_.query_log())) {
    EXPECT_GE(d.matched_prefixes, 2u);
    EXPECT_NE(d.cookie, 1234u);
  }
}

TEST(AggregatorTest, PetsTemporalCorrelation) {
  // The paper's CFP -> submission inference: two separate single-prefix
  // queries within a window, correlated by cookie.
  const auto cfp = crypto::prefix32_of("petsymposium.org/2016/cfp.php");
  const auto submission =
      crypto::prefix32_of("https://petsymposium.org/2016/submission/");

  std::vector<sb::QueryLogEntry> log;
  log.push_back({100, 1, {cfp}, {}});
  log.push_back({150, 1, {submission}, {}});  // same user, close in time
  log.push_back({100, 2, {cfp}, {}});  // user 2 never queries submission
  log.push_back({5000, 3, {cfp}, {}});
  log.push_back({99000, 3, {submission}, {}});  // user 3: outside the window

  CorrelationRule rule;
  rule.label = "plans to submit a paper";
  rule.prefixes = {cfp, submission};
  rule.window_ticks = 1000;
  rule.ordered = true;

  const auto hits = correlate(log, {rule});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].cookie, 1u);
  EXPECT_EQ(hits[0].label, "plans to submit a paper");
  EXPECT_EQ(hits[0].first_tick, 100u);
  EXPECT_EQ(hits[0].last_tick, 150u);
}

TEST(AggregatorTest, UnorderedRuleMatchesEitherOrder) {
  CorrelationRule rule;
  rule.label = "x";
  rule.prefixes = {0xAAAA, 0xBBBB};
  rule.window_ticks = 100;
  rule.ordered = false;

  std::vector<sb::QueryLogEntry> log;
  log.push_back({10, 5, {0xBBBB}, {}});
  log.push_back({20, 5, {0xAAAA}, {}});  // reverse order
  EXPECT_EQ(correlate(log, {rule}).size(), 1u);

  rule.ordered = true;
  EXPECT_TRUE(correlate(log, {rule}).empty());  // order enforced
}

TEST(AggregatorTest, WindowBoundary) {
  CorrelationRule rule;
  rule.label = "w";
  rule.prefixes = {1, 2};
  rule.window_ticks = 50;

  std::vector<sb::QueryLogEntry> log;
  log.push_back({0, 9, {1}, {}});
  log.push_back({50, 9, {2}, {}});  // exactly at the boundary: inclusive
  EXPECT_EQ(correlate(log, {rule}).size(), 1u);

  log[1].tick = 51;
  EXPECT_TRUE(correlate(log, {rule}).empty());
}

TEST(AggregatorTest, MultiplePrefixesInOneQueryCount) {
  CorrelationRule rule;
  rule.label = "m";
  rule.prefixes = {7, 8};
  rule.window_ticks = 10;
  std::vector<sb::QueryLogEntry> log;
  log.push_back({5, 4, {7, 8}, {}});  // both in one query
  EXPECT_EQ(correlate(log, {rule}).size(), 1u);
}

TEST(AggregatorTest, EmptyInputs) {
  EXPECT_TRUE(correlate({}, {}).empty());
  CorrelationRule rule;
  rule.label = "e";
  rule.window_ticks = 10;
  EXPECT_TRUE(correlate({{1, 1, {1}, {}}}, {rule}).empty());  // empty prefixes
}

TEST(PopulationTest, DeterministicPlans) {
  PopulationConfig config;
  config.num_users = 10;
  config.seed = 42;
  const auto a = make_population(config, {"http://t.example/"},
                                 {"http://b1.example/", "http://b2.example/"});
  const auto b = make_population(config, {"http://t.example/"},
                                 {"http://b1.example/", "http://b2.example/"});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cookie, b[i].cookie);
    EXPECT_EQ(a[i].interested, b[i].interested);
    EXPECT_EQ(a[i].visit_plan, b[i].visit_plan);
  }
}

TEST(PopulationTest, InterestedUsersVisitTargets) {
  PopulationConfig config;
  config.num_users = 30;
  config.interested_fraction = 0.5;
  config.seed = 3;
  const auto users = make_population(config, {"http://t.example/page"},
                                     {"http://bg.example/"});
  for (const auto& user : users) {
    const bool visits_target =
        std::find(user.visit_plan.begin(), user.visit_plan.end(),
                  "http://t.example/page") != user.visit_plan.end();
    EXPECT_EQ(visits_target, user.interested);
  }
}

}  // namespace
}  // namespace sbp::tracking
