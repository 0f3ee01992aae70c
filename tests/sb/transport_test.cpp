#include "sb/transport.hpp"

#include <gtest/gtest.h>

#include "crypto/digest.hpp"
#include "sb/wire/frames.hpp"

namespace sbp::sb {
namespace {

class TransportTest : public ::testing::Test {
 protected:
  TransportTest() : transport_(server_, clock_, /*round_trip_ticks=*/25) {
    server_.add_expression("list", "evil.example/");
    server_.seal_chunk("list");
  }

  Server server_;
  SimClock clock_;
  InProcessTransport transport_;
};

TEST_F(TransportTest, RoundTripAdvancesClock) {
  EXPECT_EQ(clock_.now(), 0u);
  (void)transport_.get_full_hashes({0x1234}, 1);
  EXPECT_EQ(clock_.now(), 25u);
  (void)transport_.fetch_update({});
  EXPECT_EQ(clock_.now(), 50u);
}

TEST_F(TransportTest, CountsExactEncodedFrameBytes) {
  // The byte counters are TRUE wire sizes: exactly what the frame codecs
  // emit, nothing estimated.
  const std::vector<crypto::Prefix32> prefixes = {
      crypto::prefix32_of("evil.example/")};
  const auto response = transport_.get_full_hashes(prefixes, 7);
  const TransportStats& stats = transport_.stats();
  EXPECT_EQ(stats.full_hash_requests, 1u);
  EXPECT_EQ(stats.bytes_up,
            wire::encode_full_hash_request({7, prefixes}).size());
  EXPECT_EQ(stats.bytes_down, wire::encode_full_hash_response(response).size());
  EXPECT_GT(stats.bytes_down, 32u);  // carries at least one full digest
}

TEST_F(TransportTest, UpdateBytesAreEncodedFrameSizes) {
  UpdateRequest request;
  request.lists.push_back({"list", {}, {}});
  const auto response = transport_.fetch_update(request);
  const TransportStats& stats = transport_.stats();
  EXPECT_EQ(stats.update_requests, 1u);
  EXPECT_EQ(stats.bytes_up, wire::encode_update_request(request).size());
  EXPECT_EQ(stats.bytes_down, wire::encode_update_response(response).size());
  ASSERT_EQ(response.lists.size(), 1u);  // the one sealed chunk came back
}

TEST_F(TransportTest, V4UpdateBytesAreEncodedFrameSizes) {
  V4UpdateRequest request;
  request.lists.push_back({"list", 0});
  const auto response = transport_.fetch_v4_update_or_error(request);
  ASSERT_TRUE(response.has_value());
  const TransportStats& stats = transport_.stats();
  EXPECT_EQ(stats.v4_update_requests, 1u);
  EXPECT_EQ(stats.bytes_up, wire::encode_v4_update_request(request).size());
  EXPECT_EQ(stats.bytes_down,
            wire::encode_v4_update_response(*response).size());
}

TEST_F(TransportTest, RepliesEqualServeFrameOnAllFourChannels) {
  // The transport adds nothing to the server's bytes: on every channel the
  // decoded reply re-encodes to exactly what Server::serve_frame returns
  // for the same request frame on an identically seeded twin server.
  Server twin;
  twin.add_expression("list", "evil.example/");
  twin.seal_chunk("list");
  std::uint64_t reply_bytes = 0;
  const auto serve = [&](const std::vector<std::uint8_t>& request) {
    const ResponseFrame reply = twin.serve_frame(request, clock_.now());
    EXPECT_NE(reply, nullptr);
    if (reply == nullptr) return std::vector<std::uint8_t>{};
    reply_bytes += reply->size();
    return *reply;
  };

  const std::vector<crypto::Prefix32> prefixes = {
      crypto::prefix32_of("evil.example/"), 0x1234};
  const auto full_hash = transport_.get_full_hashes_or_error(prefixes, 7);
  ASSERT_TRUE(full_hash.has_value());
  EXPECT_EQ(wire::encode_full_hash_response(*full_hash),
            serve(wire::encode_full_hash_request({7, prefixes})));

  UpdateRequest update;
  update.lists.push_back({"list", {}, {}});
  const auto v3 = transport_.fetch_update_or_error(update);
  ASSERT_TRUE(v3.has_value());
  EXPECT_EQ(wire::encode_update_response(*v3),
            serve(wire::encode_update_request(update)));

  V4UpdateRequest v4_update;
  v4_update.lists.push_back({"list", 0});
  const auto v4 = transport_.fetch_v4_update_or_error(v4_update);
  ASSERT_TRUE(v4.has_value());
  EXPECT_EQ(wire::encode_v4_update_response(*v4),
            serve(wire::encode_v4_update_request(v4_update)));

  const auto malicious =
      transport_.lookup_v1_or_error("http://evil.example/", 9);
  ASSERT_TRUE(malicious.has_value());
  EXPECT_TRUE(*malicious);
  EXPECT_EQ(wire::encode_v1_lookup_response({*malicious}),
            serve(wire::encode_v1_lookup_request({9, "http://evil.example/"})));

  // Same observations at the same ticks, and the transport billed exactly
  // the served bytes.
  EXPECT_EQ(server_.query_log(), twin.query_log());
  EXPECT_EQ(transport_.stats().bytes_down, reply_bytes);
}

TEST_F(TransportTest, FailureStillAdvancesClock) {
  transport_.inject_update_failures(1);
  (void)transport_.fetch_update_or_error({});
  EXPECT_EQ(clock_.now(), 25u);  // timeout costs a round trip
}

TEST_F(TransportTest, FailedRequestsDoNotReachQueryLog) {
  transport_.inject_full_hash_failures(1);
  (void)transport_.get_full_hashes_or_error({0xAB}, 3);
  EXPECT_TRUE(server_.query_log().empty());
}

TEST_F(TransportTest, FailedRequestsCountNoBytes) {
  transport_.inject_full_hash_failures(1);
  (void)transport_.get_full_hashes_or_error({0xAB}, 3);
  EXPECT_EQ(transport_.stats().bytes_up, 0u);
  EXPECT_EQ(transport_.stats().bytes_down, 0u);
  EXPECT_EQ(transport_.stats().failed_requests, 1u);
}

TEST_F(TransportTest, MinimumWaitEchoedOnBothUpdateEndpoints) {
  server_.set_minimum_wait(123);
  UpdateRequest request;
  request.lists.push_back({"list", {}, {}});
  EXPECT_EQ(transport_.fetch_update(request).next_update_after, 123u);
  V4UpdateRequest v4_request;
  v4_request.lists.push_back({"list", 0});
  const auto v4_response = transport_.fetch_v4_update_or_error(v4_request);
  ASSERT_TRUE(v4_response.has_value());
  EXPECT_EQ(v4_response->minimum_wait, 123u);
}

TEST_F(TransportTest, UpdateFailureInjectionCoversV4Too) {
  transport_.inject_update_failures(1);
  V4UpdateRequest request;
  request.lists.push_back({"list", 0});
  EXPECT_FALSE(transport_.fetch_v4_update_or_error(request).has_value());
  EXPECT_TRUE(transport_.fetch_v4_update_or_error(request).has_value());
}

}  // namespace
}  // namespace sbp::sb
