#include "sb/client.hpp"

#include <gtest/gtest.h>

#include "sb/lookup_api.hpp"

namespace sbp::sb {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : transport_(server_, clock_) {
    server_.add_expression("goog-malware-shavar", "evil.example/attack.html");
    server_.add_expression("goog-malware-shavar", "malware.example/");
    server_.seal_chunk("goog-malware-shavar");
  }

  Client make_client(storage::StoreKind kind = storage::StoreKind::kDeltaCoded,
                     Cookie cookie = 42) {
    ClientConfig config;
    config.store_kind = kind;
    config.cookie = cookie;
    Client client(transport_, config);
    client.subscribe("goog-malware-shavar");
    client.update();
    return client;
  }

  Server server_;
  SimClock clock_;
  InProcessTransport transport_;
};

TEST_F(ClientTest, SafeUrlLeaksNothing) {
  Client client = make_client();
  const auto result = client.lookup("http://benign.example/page.html");
  EXPECT_EQ(result.verdict, Verdict::kSafe);
  EXPECT_TRUE(result.sent_prefixes.empty());
  EXPECT_TRUE(result.local_hits.empty());
  EXPECT_TRUE(server_.query_log().empty());  // nothing reached the server
}

TEST_F(ClientTest, MaliciousUrlDetected) {
  Client client = make_client();
  const auto result = client.lookup("http://evil.example/attack.html");
  EXPECT_EQ(result.verdict, Verdict::kMalicious);
  EXPECT_EQ(result.matched_list, "goog-malware-shavar");
  EXPECT_EQ(result.matched_expression, "evil.example/attack.html");
  EXPECT_EQ(result.sent_prefixes.size(), 1u);
  ASSERT_EQ(server_.query_log().size(), 1u);
  EXPECT_EQ(server_.query_log()[0].cookie, 42u);
}

TEST_F(ClientTest, DomainBlacklistCatchesAllPages) {
  // malware.example/ is blacklisted; every URL on the host decomposes to it.
  Client client = make_client();
  EXPECT_EQ(client.lookup("http://malware.example/any/page.html").verdict,
            Verdict::kMalicious);
  EXPECT_EQ(client.lookup("http://malware.example/other?q=1").verdict,
            Verdict::kMalicious);
}

TEST_F(ClientTest, PrefixHitButDigestMismatchIsSafe) {
  // Forge an entry whose prefix the client will hit but whose full digest
  // differs: the false-positive elimination path of Figure 3.
  const auto digest = crypto::Digest256::of("benign-lookalike.example/");
  auto bytes = crypto::Digest256::of("something-else/").bytes();
  bytes[0] = digest.bytes()[0];
  bytes[1] = digest.bytes()[1];
  bytes[2] = digest.bytes()[2];
  bytes[3] = digest.bytes()[3];
  server_.add_digest("goog-malware-shavar", crypto::Digest256(bytes));
  server_.seal_chunk("goog-malware-shavar");

  Client client = make_client();
  const auto result = client.lookup("http://benign-lookalike.example/");
  EXPECT_EQ(result.verdict, Verdict::kSafe);
  // But the prefix DID go to the server -- the privacy leak on a false
  // positive.
  EXPECT_EQ(result.sent_prefixes.size(), 1u);
  EXPECT_EQ(result.sent_prefixes[0], digest.prefix32());
}

TEST_F(ClientTest, FullHashCacheSuppressesRepeatQueries) {
  Client client = make_client();
  (void)client.lookup("http://evil.example/attack.html");
  const std::size_t log_before = server_.query_log().size();
  const auto result = client.lookup("http://evil.example/attack.html");
  EXPECT_EQ(result.verdict, Verdict::kMalicious);
  EXPECT_TRUE(result.answered_from_cache);
  EXPECT_TRUE(result.sent_prefixes.empty());
  EXPECT_EQ(server_.query_log().size(), log_before);  // no new query
}

/// The update loop is one implementation for v3 and v4 (see
/// sb::PrefixProtocolClient): its cache clear runs on both generations.
class ClientUpdateTest : public ClientTest,
                         public ::testing::WithParamInterface<ProtocolVersion> {
};

INSTANTIATE_TEST_SUITE_P(Generations, ClientUpdateTest,
                         ::testing::Values(ProtocolVersion::kV3Chunked,
                                           ProtocolVersion::kV4Sliced),
                         [](const auto& info) {
                           return info.param == ProtocolVersion::kV3Chunked
                                      ? "V3"
                                      : "V4";
                         });

TEST_P(ClientUpdateTest, UpdateClearsFullHashCache) {
  ClientConfig config;
  config.protocol = GetParam();
  config.cookie = 42;
  const auto client = make_protocol_client(transport_, config);
  client->subscribe("goog-malware-shavar");
  ASSERT_TRUE(client->update());
  (void)client->lookup("http://evil.example/attack.html");
  const std::size_t log_cached = server_.query_log().size();
  EXPECT_TRUE(client->lookup("http://evil.example/attack.html")
                  .answered_from_cache);
  EXPECT_EQ(server_.query_log().size(), log_cached);
  ASSERT_TRUE(client->update());
  const auto result = client->lookup("http://evil.example/attack.html");
  EXPECT_FALSE(result.answered_from_cache);
  EXPECT_EQ(result.verdict, Verdict::kMalicious);
  EXPECT_EQ(server_.query_log().size(), log_cached + 1);  // re-queried
}

TEST_F(ClientTest, InvalidUrl) {
  Client client = make_client();
  EXPECT_EQ(client.lookup("").verdict, Verdict::kInvalid);
}

TEST_F(ClientTest, MetricsAccumulate) {
  Client client = make_client();
  (void)client.lookup("http://benign.example/");
  (void)client.lookup("http://evil.example/attack.html");
  (void)client.lookup("http://evil.example/attack.html");  // cached
  const ClientMetrics& m = client.metrics();
  EXPECT_EQ(m.lookups, 3u);
  EXPECT_EQ(m.local_hits, 2u);
  EXPECT_EQ(m.full_hash_requests, 1u);
  EXPECT_EQ(m.cache_answers, 1u);
  EXPECT_EQ(m.malicious_verdicts, 2u);
}

TEST_F(ClientTest, IncrementalUpdateAddsNewEntries) {
  Client client = make_client();
  EXPECT_EQ(client.lookup("http://new-threat.example/").verdict,
            Verdict::kSafe);
  server_.add_expression("goog-malware-shavar", "new-threat.example/");
  server_.seal_chunk("goog-malware-shavar");
  client.update();
  EXPECT_EQ(client.lookup("http://new-threat.example/").verdict,
            Verdict::kMalicious);
}

TEST_F(ClientTest, SubChunkRemovalPropagates) {
  Client client = make_client();
  EXPECT_EQ(client.lookup("http://evil.example/attack.html").verdict,
            Verdict::kMalicious);
  server_.remove_expression("goog-malware-shavar",
                            "evil.example/attack.html");
  client.update();
  EXPECT_EQ(client.lookup("http://evil.example/attack.html").verdict,
            Verdict::kSafe);
  EXPECT_EQ(client.local_prefix_count(), 1u);  // malware.example/ remains
}

TEST_F(ClientTest, BloomBackendSameVerdicts) {
  Client delta = make_client(storage::StoreKind::kDeltaCoded, 1);
  Client bloom = make_client(storage::StoreKind::kBloom, 2);
  Client raw = make_client(storage::StoreKind::kRawSorted, 3);
  for (const char* url :
       {"http://evil.example/attack.html", "http://benign.example/x",
        "http://malware.example/a/b"}) {
    const auto v = delta.lookup(url).verdict;
    EXPECT_EQ(bloom.lookup(url).verdict, v) << url;
    EXPECT_EQ(raw.lookup(url).verdict, v) << url;
  }
}

TEST_F(ClientTest, CookieAccompaniesEveryFullHashRequest) {
  Client client = make_client(storage::StoreKind::kDeltaCoded, 0xC00C1E);
  (void)client.lookup("http://evil.example/attack.html");
  ASSERT_FALSE(server_.query_log().empty());
  for (const auto& entry : server_.query_log()) {
    EXPECT_EQ(entry.cookie, 0xC00C1Eu);
  }
}

TEST(LookupV1Test, ServerSeesUrlsInClear) {
  Server server;
  SimClock clock;
  InProcessTransport transport(server, clock);
  server.add_expression("l", "evil.example/attack.html");
  ClientConfig config;
  config.protocol = ProtocolVersion::kV1Lookup;
  config.cookie = 9;
  V1LookupProtocol v1(transport, config);
  EXPECT_EQ(v1.lookup("http://evil.example/attack.html").verdict,
            Verdict::kMalicious);
  EXPECT_EQ(v1.lookup("http://benign.example/secret-page").verdict,
            Verdict::kSafe);
  // The privacy failure: both URLs, including the benign one, are logged.
  ASSERT_EQ(server.query_log().size(), 2u);
  EXPECT_EQ(server.query_log()[1].url, "http://benign.example/secret-page");
  EXPECT_EQ(server.query_log()[1].cookie, 9u);
}

}  // namespace
}  // namespace sbp::sb
