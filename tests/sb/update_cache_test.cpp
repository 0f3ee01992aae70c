// The encode-once/fan-out cache behind Server::serve_frame's update frames: a
// fleet of clients resyncing from the same state token must be served one
// shared encoding (byte-identical to a fresh encode), and EVERY mutation
// path -- add_expression, seal_chunk, set_minimum_wait -- must drop the
// cache so no client ever sees a stale diff.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

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

}  // namespace
}  // namespace sbp::sb
