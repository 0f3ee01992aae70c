// Concurrency contract of the server (sb/server.hpp): the read endpoints
// (get_full_hashes, lookup_v1) read the lists' prefix -> digest maps
// directly, so every change is served at once and, with the lists left
// alone, they are safe and correct under many concurrent callers with no
// lock; per-thread ScopedLogShard buffers capture every entry without a
// data race. Run under ThreadSanitizer in CI.
#include "sb/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "crypto/digest.hpp"
#include "sb/client.hpp"
#include "sb/transport.hpp"

namespace sbp::sb {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kIterations = 400;

class ServerConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.create_list("list-a");
    server_.create_list("list-b");
    for (int i = 0; i < 64; ++i) {
      server_.add_expression("list-a",
                             "host" + std::to_string(i) + ".example/");
    }
    server_.add_expression("list-b", "evil.example/payload.html");
    server_.add_orphan_prefix("list-a", 0xDEADBEEF);
    server_.seal_chunk("list-a");
    server_.seal_chunk("list-b");
  }

  Server server_{Provider::kGoogle};
};

TEST_F(ServerConcurrencyTest, ReadEndpointsServeTheListsAsTheyStand) {
  const auto matches_of = [&](crypto::Prefix32 prefix) {
    const auto response = server_.get_full_hashes({prefix}, 1, 0);
    EXPECT_EQ(response.matches.size(), 1u);
    return response.matches.at(prefix);
  };

  // An unsealed add is served at once by both read endpoints.
  const auto fresh = crypto::Digest256::of("fresh.example/");
  server_.add_expression("list-a", "fresh.example/");
  auto matches = matches_of(fresh.prefix32());
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].list_name, "list-a");
  EXPECT_EQ(matches[0].digest, fresh);
  EXPECT_TRUE(server_.lookup_v1("http://fresh.example/", 1, 0));

  // A removal drops it at once.
  server_.remove_expression("list-a", "fresh.example/");
  EXPECT_TRUE(matches_of(fresh.prefix32()).empty());
  EXPECT_FALSE(server_.lookup_v1("http://fresh.example/", 1, 0));

  // An orphan prefix is listed, but has no digest to return.
  EXPECT_TRUE(matches_of(0xDEADBEEF).empty());

  // Listed in both lists (list-b first), plus a digest that shares the
  // prefix in list-a: every match, by list name, then in digest order.
  const auto twice = crypto::Digest256::of("twice.example/");
  auto twin_bytes = twice.bytes();
  twin_bytes.back() ^= 0xFF;
  const crypto::Digest256 twin(twin_bytes);
  server_.add_digest("list-b", twice);
  server_.add_digest("list-a", twice);
  server_.add_digest("list-a", twin);
  matches = matches_of(twice.prefix32());
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].list_name, "list-a");
  EXPECT_EQ(matches[0].digest, twice);
  EXPECT_EQ(matches[1].list_name, "list-a");
  EXPECT_EQ(matches[1].digest, twin);
  EXPECT_EQ(matches[2].list_name, "list-b");
  EXPECT_EQ(matches[2].digest, twice);

  // A client's verdict names the first list that matched.
  SimClock clock;
  InProcessTransport transport(server_, clock, /*round_trip_ticks=*/0);
  Client client(transport, ClientConfig{});
  client.subscribe("list-b");
  client.subscribe("list-a");
  ASSERT_TRUE(client.update());
  const LookupResult result = client.lookup("http://twice.example/");
  EXPECT_EQ(result.verdict, Verdict::kMalicious);
  EXPECT_EQ(result.matched_list, "list-a");
  EXPECT_EQ(result.matched_expression, "twice.example/");
}

TEST_F(ServerConcurrencyTest, ConcurrentFullHashLookupsAreCorrectAndLogged) {
  const crypto::Prefix32 known =
      crypto::prefix32_of("host3.example/");
  const crypto::Prefix32 evil =
      crypto::prefix32_of("evil.example/payload.html");
  const crypto::Prefix32 unknown = 0x01020304;

  std::vector<QueryLogBuffer> buffers(kThreads);
  std::atomic<std::size_t> failures{0};

  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const Server::ScopedLogShard scope(buffers[t]);
        for (std::size_t i = 0; i < kIterations; ++i) {
          const auto response = server_.get_full_hashes(
              {known, evil, unknown}, /*cookie=*/t + 1, /*tick=*/i);
          const auto known_it = response.matches.find(known);
          const auto evil_it = response.matches.find(evil);
          const auto unknown_it = response.matches.find(unknown);
          if (known_it == response.matches.end() ||
              known_it->second.size() != 1 ||
              known_it->second[0].list_name != "list-a" ||
              evil_it == response.matches.end() ||
              evil_it->second.size() != 1 ||
              evil_it->second[0].list_name != "list-b" ||
              unknown_it == response.matches.end() ||
              !unknown_it->second.empty()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  EXPECT_EQ(failures.load(), 0u);
  // Every request was captured in its thread's buffer, none leaked to the
  // server log.
  EXPECT_TRUE(server_.query_log().empty());
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(buffers[t].entries().size(), kIterations);
    for (std::size_t i = 0; i < kIterations; ++i) {
      const QueryLogEntry& entry = buffers[t].entries()[i];
      EXPECT_EQ(entry.cookie, t + 1);
      EXPECT_EQ(entry.tick, i);  // per-buffer seq order preserved
    }
  }

  // Draining in shard order reproduces the canonical merged log.
  for (auto& buffer : buffers) server_.drain_log_buffer(buffer);
  EXPECT_EQ(server_.query_log().size(), kThreads * kIterations);
  EXPECT_EQ(server_.query_log().front().cookie, 1u);
  EXPECT_EQ(server_.query_log().back().cookie, kThreads);
  for (const auto& buffer : buffers) EXPECT_TRUE(buffer.empty());
}

TEST_F(ServerConcurrencyTest, ConcurrentV1LookupsAgreeOnVerdicts) {
  std::atomic<std::size_t> wrong_verdicts{0};
  std::vector<QueryLogBuffer> buffers(kThreads);

  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const Server::ScopedLogShard scope(buffers[t]);
        for (std::size_t i = 0; i < kIterations; ++i) {
          const bool evil = server_.lookup_v1(
              "http://evil.example/payload.html", t + 1, i);
          const bool benign = server_.lookup_v1(
              "http://safe-and-sound.example/index.html", t + 1, i);
          if (!evil || benign) {
            wrong_verdicts.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  EXPECT_EQ(wrong_verdicts.load(), 0u);
  for (const auto& buffer : buffers) {
    EXPECT_EQ(buffer.entries().size(), 2 * kIterations);
  }
}

TEST_F(ServerConcurrencyTest, ScopedLogShardNestsAndRestores) {
  QueryLogBuffer outer, inner;
  {
    const Server::ScopedLogShard outer_scope(outer);
    (void)server_.get_full_hashes({0x11111111}, 1, 0);
    {
      const Server::ScopedLogShard inner_scope(inner);
      (void)server_.get_full_hashes({0x22222222}, 2, 0);
    }
    (void)server_.get_full_hashes({0x33333333}, 3, 0);
  }
  ASSERT_EQ(outer.entries().size(), 2u);
  ASSERT_EQ(inner.entries().size(), 1u);
  EXPECT_EQ(outer.entries()[0].cookie, 1u);
  EXPECT_EQ(inner.entries()[0].cookie, 2u);
  EXPECT_EQ(outer.entries()[1].cookie, 3u);

  // Guard gone: logging reverts to the server's own retained log.
  (void)server_.get_full_hashes({0x44444444}, 4, 0);
  ASSERT_EQ(server_.query_log().size(), 1u);
  EXPECT_EQ(server_.query_log()[0].cookie, 4u);
}

}  // namespace
}  // namespace sbp::sb
