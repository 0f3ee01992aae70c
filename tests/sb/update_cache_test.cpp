// The encode-once/fan-out cache behind Server::serve_frame's update frames: a
// fleet of clients resyncing from the same state token must be served one
// shared encoding (byte-identical to a fresh encode), and EVERY mutation
// path -- add_expression, seal_chunk, set_minimum_wait -- must drop the
// cache, published table included, so no client ever sees a stale diff.
// Concurrent serves encode each distinct frame once, before and after a
// publish. The table behind it (sb::PublishedTable) keeps its contract: a
// lock-free find sees only published slots, publish() lets a pending slot
// replace the published slot of its key, clear() drops both tables, and
// the mutex is taken exactly by the calls that missed the published table.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sb/published_table.hpp"
#include "sb/server.hpp"
#include "sb/wire/frames.hpp"

namespace sbp::sb {
namespace {

constexpr const char* kList = "goog-malware-shavar";

Server seeded_server() {
  Server server;
  server.add_expression(kList, "evil.example/");
  server.add_expression(kList, "worse.example/path");
  server.seal_chunk(kList);
  return server;
}

std::vector<std::uint8_t> v3_request_from_scratch() {
  return wire::encode_update_request({{{kList, {}, {}}}});
}

std::vector<std::uint8_t> v4_request_from_scratch() {
  return wire::encode_v4_update_request({{{kList, 0}}});
}

TEST(UpdateEncodeCacheTest, SecondIdenticalRequestIsAHit) {
  Server server = seeded_server();
  const auto request = v3_request_from_scratch();

  const auto first = server.serve_frame(request, /*tick=*/0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(server.update_encode_cache_hits(), 0u);

  const auto second = server.serve_frame(request, /*tick=*/0);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(server.update_encode_cache_hits(), 1u);
  // Fan-out shares the ONE buffer, not a copy of it.
  EXPECT_EQ(first.get(), second.get());
}

TEST(UpdateEncodeCacheTest, HitBytesEqualAFreshEncode) {
  // Two servers with identical lists: one answers twice (second from
  // cache), the other once (always fresh). All three frames must be
  // byte-identical -- the cache may never change what goes on the wire.
  Server cached = seeded_server();
  Server fresh = seeded_server();
  const auto request = v4_request_from_scratch();

  const auto warm = cached.serve_frame(request, /*tick=*/0);
  const auto hit = cached.serve_frame(request, /*tick=*/0);
  const auto reference = fresh.serve_frame(request, /*tick=*/0);
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(reference, nullptr);
  EXPECT_EQ(cached.update_encode_cache_hits(), 1u);
  EXPECT_EQ(*hit, *warm);
  EXPECT_EQ(*hit, *reference);
}

TEST(UpdateEncodeCacheTest, DistinctStateTokensAreDistinctEntries) {
  Server server = seeded_server();
  const auto from_scratch = server.serve_frame(
      v4_request_from_scratch(), /*tick=*/0);
  ASSERT_NE(from_scratch, nullptr);
  const auto decoded = wire::decode_v4_update_response(*from_scratch);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->lists.size(), 1u);

  // A client already at the new state asks again: different request
  // bytes, so a miss -- and a different (empty-diff) response.
  const auto synced = server.serve_frame(
      wire::encode_v4_update_request({{{kList, decoded->lists[0].new_state}}}),
      /*tick=*/0);
  ASSERT_NE(synced, nullptr);
  EXPECT_EQ(server.update_encode_cache_hits(), 0u);
  EXPECT_NE(*synced, *from_scratch);

  // Both entries now live side by side; each repeat is a hit.
  (void)server.serve_frame(v4_request_from_scratch(), /*tick=*/0);
  (void)server.serve_frame(
      wire::encode_v4_update_request({{{kList, decoded->lists[0].new_state}}}),
      /*tick=*/0);
  EXPECT_EQ(server.update_encode_cache_hits(), 2u);
}

TEST(UpdateEncodeCacheTest, ListMutationInvalidates) {
  Server server = seeded_server();
  const auto request = v3_request_from_scratch();
  const auto before = server.serve_frame(request, /*tick=*/0);
  ASSERT_NE(before, nullptr);

  server.add_expression(kList, "fresh-threat.example/");
  server.seal_chunk(kList);

  // Not a hit: the cached diff predates the new chunk.
  const auto after = server.serve_frame(request, /*tick=*/0);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(server.update_encode_cache_hits(), 0u);
  EXPECT_NE(*after, *before);
  const auto decoded = wire::decode_update_response(*after);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->lists.size(), 1u);
  EXPECT_EQ(decoded->lists[0].chunks.size(), 2u)
      << "post-mutation response must include the new chunk";
}

TEST(UpdateEncodeCacheTest, SetMinimumWaitInvalidates) {
  Server server = seeded_server();
  const auto request = v4_request_from_scratch();
  const auto before = server.serve_frame(request, /*tick=*/0);
  ASSERT_NE(before, nullptr);

  server.set_minimum_wait(9);
  const auto after = server.serve_frame(request, /*tick=*/0);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(server.update_encode_cache_hits(), 0u)
      << "the wait is baked into the encoding; a stale hit would serve "
         "the old wait";
  const auto decoded = wire::decode_v4_update_response(*after);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->minimum_wait, 9u);
}

TEST(UpdateEncodeCacheTest, UndecodableAndEmptyFramesAreRejected) {
  Server server = seeded_server();
  EXPECT_EQ(server.serve_frame({}, /*tick=*/0), nullptr);
  // An update response is not a request.
  EXPECT_EQ(server.serve_frame(wire::encode_update_response({}), /*tick=*/0),
            nullptr);
  // Truncated v3 update request: correct tag, garbage body.
  EXPECT_EQ(server.serve_frame(
                {static_cast<std::uint8_t>(wire::FrameType::kUpdateRequest),
                 0xFF},
                /*tick=*/0),
            nullptr);
  EXPECT_EQ(server.update_encode_cache_hits(), 0u);
}

TEST(UpdateEncodeCacheTest, CopiedServerStartsCold) {
  Server server = seeded_server();
  const auto request = v3_request_from_scratch();
  (void)server.serve_frame(request, /*tick=*/0);
  (void)server.serve_frame(request, /*tick=*/0);
  ASSERT_EQ(server.update_encode_cache_hits(), 1u);

  Server copy(server);
  EXPECT_EQ(copy.update_encode_cache_hits(), 0u);
  const auto from_copy = copy.serve_frame(request, /*tick=*/0);
  ASSERT_NE(from_copy, nullptr);
  EXPECT_EQ(copy.update_encode_cache_hits(), 0u);  // first answer: a miss
  const auto from_original = server.serve_frame(request, /*tick=*/0);
  ASSERT_NE(from_original, nullptr);
  EXPECT_EQ(*from_copy, *from_original);
}

TEST(UpdateEncodeCacheTest, PublishedEncodingsDropOnEveryMutation) {
  const auto v3 = v3_request_from_scratch();
  const auto v4 = v4_request_from_scratch();
  const std::vector<std::function<void(Server&)>> mutations = {
      [](Server& server) {
        server.add_expression(kList, "fresh-threat.example/");
        server.seal_chunk(kList);
      },
      [](Server& server) {
        server.remove_expression(kList, "evil.example/");
      },
      [](Server& server) { server.set_minimum_wait(9); },
  };
  for (std::size_t m = 0; m < mutations.size(); ++m) {
    Server server = seeded_server();
    (void)server.serve_frame(v3, /*tick=*/0);
    const auto before_v4 = server.serve_frame(v4, /*tick=*/0);
    server.publish_update_cache();
    mutations[m](server);

    // Both answers are fresh encodes of the mutated lists, also for a
    // shard worker, which reads the published table without a lock.
    QueryLogBuffer buffer;
    Server fresh = seeded_server();
    mutations[m](fresh);
    {
      const Server::ScopedLogShard shard(buffer);
      EXPECT_EQ(*server.serve_frame(v3, /*tick=*/0),
                *fresh.serve_frame(v3, /*tick=*/0))
          << "mutation " << m;
      EXPECT_EQ(*server.serve_frame(v4, /*tick=*/0),
                *fresh.serve_frame(v4, /*tick=*/0))
          << "mutation " << m;
    }
    server.drain_log_buffer(buffer);
    EXPECT_EQ(server.update_encode_cache_hits(), 0u) << "mutation " << m;
    EXPECT_NE(*server.serve_frame(v4, /*tick=*/0), *before_v4)
        << "mutation " << m;
  }
}

/// Encoded update requests from distinct client states: v3 inventories and
/// v4 state tokens.
std::vector<std::vector<std::uint8_t>> distinct_requests(int count) {
  std::vector<std::vector<std::uint8_t>> requests;
  for (int i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      requests.push_back(wire::encode_v4_update_request(
          {{{kList, static_cast<std::uint64_t>(i / 2)}}}));
    } else {
      std::vector<std::uint32_t> adds;
      for (std::uint32_t n = 1; n <= static_cast<std::uint32_t>(i / 2); ++n) {
        adds.push_back(n);
      }
      requests.push_back(wire::encode_update_request({{{kList, adds, {}}}}));
    }
  }
  return requests;
}

/// Every thread serves every request `rounds` times (each thread starts at
/// its own offset) inside its own shard scope, then the buffers are
/// drained. Returns, per thread, the frames it got, in request order of
/// the last round.
std::vector<std::vector<ResponseFrame>> serve_concurrently(
    Server& server, const std::vector<std::vector<std::uint8_t>>& requests,
    int threads, int rounds) {
  std::vector<QueryLogBuffer> buffers(static_cast<std::size_t>(threads));
  std::vector<std::vector<ResponseFrame>> got(
      static_cast<std::size_t>(threads),
      std::vector<ResponseFrame>(requests.size()));
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const auto index = static_cast<std::size_t>(t);
      const Server::ScopedLogShard shard(buffers[index]);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const std::size_t r = (i + index) % requests.size();
          got[index][r] = server.serve_frame(requests[r], /*tick=*/0);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  for (auto& buffer : buffers) server.drain_log_buffer(buffer);
  return got;
}

TEST(UpdateEncodeCacheTest, ConcurrentServesEncodeEachFrameOnce) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  Server server = seeded_server();
  server.add_expression(kList, "third.example/");
  server.seal_chunk(kList);
  Server reference = seeded_server();
  reference.add_expression(kList, "third.example/");
  reference.seal_chunk(kList);
  const auto all = distinct_requests(12);
  const std::vector<std::vector<std::uint8_t>> first(all.begin(),
                                                     all.begin() + 8);

  // Checks one phase: `distinct` requests encoded once each, every other
  // call a hit, and every thread handed that one encoding -- the bytes of
  // a fresh encode.
  std::uint64_t hits = 0;
  const auto phase = [&](const std::vector<std::vector<std::uint8_t>>& sent,
                         std::size_t distinct, const std::string& label) {
    const auto got = serve_concurrently(server, sent, kThreads, kRounds);
    const std::uint64_t calls = sent.size() * kThreads * kRounds;
    hits += calls - distinct;
    EXPECT_EQ(server.update_encode_cache_hits(), hits) << label;
    for (std::size_t r = 0; r < sent.size(); ++r) {
      const auto fresh = reference.serve_frame(sent[r], /*tick=*/0);
      for (const auto& thread : got) {
        ASSERT_NE(thread[r], nullptr) << label;
        EXPECT_EQ(thread[r], got[0][r]) << label << ": encoded twice";
        EXPECT_EQ(*thread[r], *fresh) << label;
      }
    }
  };

  // Nothing published: every call takes the serve mutex.
  phase(first, first.size(), "before publish");
  const std::uint64_t calls = first.size() * kThreads * kRounds;
  EXPECT_EQ(server.update_serve_lock().acquisitions, calls);

  // Published: the first requests are lock-free hits; only the new ones
  // take the mutex (and are encoded once each).
  server.publish_update_cache();
  phase(all, all.size() - first.size(), "after publish");
  EXPECT_EQ(server.update_serve_lock().acquisitions,
            calls + (all.size() - first.size()) * kThreads * kRounds);

  // A list mutation drops both tables: everything is encoded again.
  server.publish_update_cache();
  server.add_expression(kList, "fourth.example/");
  server.seal_chunk(kList);
  reference.add_expression(kList, "fourth.example/");
  reference.seal_chunk(kList);
  phase(all, all.size(), "after mutation");
}

using Table = PublishedTable<std::string, int>;

/// get_or_build with a slot test and a build that stores `value`.
int get_or_build(Table& table, const std::string& key, int value,
                 const std::function<bool(int)>& fits = [](int) {
                   return true;
                 }) {
  return table.get_or_build(key, fits,
                            [value] { return std::optional<int>(value); });
}

TEST(PublishedTableTest, LockFreeFindNeverSeesAPendingSlot) {
  Table table;
  EXPECT_EQ(get_or_build(table, "a", 1), 1);
  EXPECT_EQ(table.find(std::string("a")), nullptr);
  EXPECT_EQ(get_or_build(table, "a", 2), 1) << "a pending hit";
  table.publish();
  ASSERT_NE(table.find(std::string("a")), nullptr);
  EXPECT_EQ(*table.find(std::string("a")), 1);

  EXPECT_EQ(get_or_build(table, "b", 3), 3);
  EXPECT_EQ(table.find(std::string("b")), nullptr);
  // A build that stores nothing returns an empty slot and leaves none.
  EXPECT_EQ(table.get_or_build(std::string("c"), [](int) { return true; },
                               [] { return std::optional<int>(); }),
            0);
  table.publish();
  EXPECT_EQ(*table.find(std::string("b")), 3);
  EXPECT_EQ(table.find(std::string("c")), nullptr);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.builds(), 3u);
}

TEST(PublishedTableTest, PublishLetsAPendingSlotReplaceThePublishedOne) {
  Table table;
  (void)get_or_build(table, "a", 1);
  (void)get_or_build(table, "b", 2);
  table.publish();
  // The published slot of "a" no longer fits: rebuilt into pending, while
  // lock-free readers keep the published one until the next publish.
  const auto not_one = [](int slot) { return slot != 1; };
  EXPECT_EQ(get_or_build(table, "a", 10, not_one), 10);
  EXPECT_EQ(get_or_build(table, "a", 11, not_one), 10) << "a pending hit";
  EXPECT_EQ(*table.find(std::string("a")), 1);
  EXPECT_EQ(table.size(), 3u);
  table.publish();
  EXPECT_EQ(*table.find(std::string("a")), 10);
  EXPECT_EQ(*table.find(std::string("b")), 2);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.builds(), 3u);
}

TEST(PublishedTableTest, ClearDropsBothTables) {
  Table table;
  (void)get_or_build(table, "a", 1);
  table.publish();
  (void)get_or_build(table, "b", 2);
  ASSERT_EQ(table.size(), 2u);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(std::string("a")), nullptr);
  table.publish();
  EXPECT_EQ(table.find(std::string("b")), nullptr);
  EXPECT_EQ(get_or_build(table, "a", 3), 3);
  EXPECT_EQ(get_or_build(table, "b", 4), 4);
  EXPECT_EQ(table.builds(), 4u);
}

TEST(PublishedTableTest, AcquisitionsEqualCallsThatMissedThePublishedTable) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 16;
  Table table;
  for (int k = 0; k < kKeys / 2; ++k) {
    (void)get_or_build(table, std::to_string(k), k);
  }
  table.publish();
  const std::uint64_t before = table.lock_stats().acquisitions;
  ASSERT_EQ(before, static_cast<std::uint64_t>(kKeys / 2));

  // Every thread asks for every key, lock-free first, as the caches do.
  std::atomic<std::uint64_t> missed{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kKeys; ++i) {
        const std::string key = std::to_string((i + t) % kKeys);
        const int want = (i + t) % kKeys;
        if (const int* slot = table.find(key)) {
          EXPECT_EQ(*slot, want);
          continue;
        }
        missed.fetch_add(1, std::memory_order_relaxed);
        EXPECT_EQ(get_or_build(table, key, want), want);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(missed.load(), static_cast<std::uint64_t>(kThreads * kKeys / 2));
  EXPECT_EQ(table.lock_stats().acquisitions - before, missed.load());
  EXPECT_EQ(table.builds(), static_cast<std::uint64_t>(kKeys));
}

}  // namespace
}  // namespace sbp::sb
