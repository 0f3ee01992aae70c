// Failure-injection tests: network errors on both endpoints, the client's
// fail-open semantics and exponential backoff (paper Section 2.2.1's
// request-frequency discipline).
#include <gtest/gtest.h>

#include <memory>

#include "sb/client.hpp"

namespace sbp::sb {
namespace {

class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest() : transport_(server_, clock_) {
    server_.add_expression("list", "evil.example/attack.html");
    server_.seal_chunk("list");
  }

  Client make_client(BackoffConfig backoff = {.base_delay = 60,
                                              .max_delay = 28800,
                                              .min_update_gap = 0}) {
    ClientConfig config;
    config.cookie = 9;
    config.backoff = backoff;
    Client client(transport_, config);
    client.subscribe("list");
    return client;
  }

  Server server_;
  SimClock clock_;
  InProcessTransport transport_;
};

TEST_F(FailureInjectionTest, FullHashErrorFailsOpen) {
  Client client = make_client();
  EXPECT_TRUE(client.update());
  transport_.inject_full_hash_failures(1);
  const auto result = client.lookup("http://evil.example/attack.html");
  // Fail-open: the URL is NOT flagged, the result is marked unconfirmed,
  // and nothing reached the server.
  EXPECT_EQ(result.verdict, Verdict::kSafe);
  EXPECT_TRUE(result.unconfirmed);
  EXPECT_TRUE(result.sent_prefixes.empty());
  EXPECT_TRUE(server_.query_log().empty());
  EXPECT_EQ(client.metrics().network_errors, 1u);
}

TEST_F(FailureInjectionTest, RecoversAfterErrorAndBackoff) {
  Client client = make_client();
  EXPECT_TRUE(client.update());
  transport_.inject_full_hash_failures(1);
  (void)client.lookup("http://evil.example/attack.html");

  // Immediately after the error, backoff suppresses the retry.
  const auto suppressed = client.lookup("http://evil.example/attack.html");
  EXPECT_TRUE(suppressed.unconfirmed);
  EXPECT_EQ(client.metrics().backoff_suppressed, 1u);

  // After the backoff window the lookup succeeds and flags the URL.
  clock_.advance(100);  // base_delay 60 + jitter < 75
  const auto result = client.lookup("http://evil.example/attack.html");
  EXPECT_EQ(result.verdict, Verdict::kMalicious);
  EXPECT_FALSE(result.unconfirmed);
}

/// The update loop is one implementation for v3 and v4 (see
/// sb::PrefixProtocolClient): its backoff cases run on both generations.
class FailureInjectionUpdateTest
    : public FailureInjectionTest,
      public ::testing::WithParamInterface<ProtocolVersion> {
 protected:
  std::unique_ptr<ProtocolClient> make_client(
      BackoffConfig backoff = {.base_delay = 60,
                               .max_delay = 28800,
                               .min_update_gap = 0}) {
    ClientConfig config;
    config.protocol = GetParam();
    config.cookie = 9;
    config.backoff = backoff;
    auto client = make_protocol_client(transport_, config);
    client->subscribe("list");
    return client;
  }
};

INSTANTIATE_TEST_SUITE_P(Generations, FailureInjectionUpdateTest,
                         ::testing::Values(ProtocolVersion::kV3Chunked,
                                           ProtocolVersion::kV4Sliced),
                         [](const auto& info) {
                           return info.param == ProtocolVersion::kV3Chunked
                                      ? "V3"
                                      : "V4";
                         });

TEST_P(FailureInjectionUpdateTest, UpdateErrorReportsAndBacksOff) {
  const auto client = make_client();
  transport_.inject_update_failures(1);
  EXPECT_FALSE(client->update());
  EXPECT_EQ(client->metrics().updates_failed, 1u);
  // Retry is suppressed until the backoff window passes.
  EXPECT_FALSE(client->update());
  EXPECT_GE(client->metrics().backoff_suppressed, 1u);
  EXPECT_GT(client->update_wait(clock_.now()), 0u);
  clock_.advance(100);
  EXPECT_EQ(client->update_wait(clock_.now()), 0u);
  EXPECT_TRUE(client->update());
  EXPECT_EQ(client->local_prefix_count(), 1u);
  EXPECT_EQ(client->metrics().updates_attempted, 3u);
}

TEST_P(FailureInjectionUpdateTest, ConsecutiveErrorsGrowTheWindow) {
  BackoffConfig backoff{.base_delay = 60,
                        .max_delay = 28800,
                        .min_update_gap = 0};
  const auto client = make_client(backoff);
  // Two consecutive update failures: the second window must be ~2x.
  transport_.inject_update_failures(2);
  EXPECT_FALSE(client->update());      // error 1 at t=50 (1 RTT)
  clock_.advance(100);                 // past window 1 (60 + jitter)
  EXPECT_FALSE(client->update());      // error 2
  clock_.advance(100);                 // NOT past window 2 (120 + jitter)
  EXPECT_FALSE(client->update());      // still suppressed
  clock_.advance(100);
  EXPECT_TRUE(client->update());
}

TEST_P(FailureInjectionUpdateTest, PoliteUpdateGapEnforced) {
  BackoffConfig backoff{.base_delay = 60,
                        .max_delay = 28800,
                        .min_update_gap = 500};
  const auto client = make_client(backoff);
  EXPECT_TRUE(client->update());
  EXPECT_FALSE(client->update());  // too soon
  clock_.advance(500);
  EXPECT_TRUE(client->update());
}

TEST_F(FailureInjectionTest, FailedRequestsCountedInTransportStats) {
  Client client = make_client();
  EXPECT_TRUE(client.update());
  transport_.inject_full_hash_failures(1);
  (void)client.lookup("http://evil.example/attack.html");
  EXPECT_EQ(transport_.stats().failed_requests, 1u);
  EXPECT_EQ(transport_.stats().full_hash_requests, 0u);
}

TEST_F(FailureInjectionTest, CacheSurvivesLaterNetworkErrors) {
  Client client = make_client();
  EXPECT_TRUE(client.update());
  // First lookup succeeds and caches the digests.
  EXPECT_EQ(client.lookup("http://evil.example/attack.html").verdict,
            Verdict::kMalicious);
  // All later traffic fails -- but the cache still answers.
  transport_.inject_full_hash_failures(100);
  const auto result = client.lookup("http://evil.example/attack.html");
  EXPECT_EQ(result.verdict, Verdict::kMalicious);
  EXPECT_TRUE(result.answered_from_cache);
}

}  // namespace
}  // namespace sbp::sb
