#include "sb/transport.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>

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
  ASSERT_TRUE(transport_.get_full_hashes_or_error({0x1234}, 1));
  EXPECT_EQ(clock_.now(), 25u);
  ASSERT_TRUE(transport_.fetch_update_or_error({}));
  EXPECT_EQ(clock_.now(), 50u);
}

TEST_F(TransportTest, CountsExactEncodedFrameBytes) {
  // The byte counters are TRUE wire sizes: exactly what the frame codecs
  // emit, nothing estimated.
  const std::vector<crypto::Prefix32> prefixes = {
      crypto::prefix32_of("evil.example/")};
  const auto response = transport_.get_full_hashes_or_error(prefixes, 7);
  ASSERT_TRUE(response);
  const TransportStats& stats = transport_.stats();
  EXPECT_EQ(stats.full_hash_requests, 1u);
  EXPECT_EQ(stats.bytes_up,
            wire::encode_full_hash_request({7, prefixes}).size());
  EXPECT_EQ(stats.bytes_down,
            wire::encode_full_hash_response(*response).size());
  EXPECT_GT(stats.bytes_down, 32u);  // carries at least one full digest
}

TEST_F(TransportTest, UpdateBytesAreEncodedFrameSizes) {
  UpdateRequest request;
  request.lists.push_back({"list", {}, {}});
  const auto response = transport_.fetch_update_or_error(request);
  ASSERT_TRUE(response);
  const TransportStats& stats = transport_.stats();
  EXPECT_EQ(stats.update_requests, 1u);
  EXPECT_EQ(stats.bytes_up, wire::encode_update_request(request).size());
  EXPECT_EQ(stats.bytes_down, wire::encode_update_response(*response).size());
  ASSERT_EQ(response->lists.size(), 1u);  // the one sealed chunk came back
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
  const auto response = transport_.fetch_update_or_error(request);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->next_update_after, 123u);
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

// -- the update decode memo ---------------------------------------------------

/// A FrameTransport whose exchange() returns scripted response frames in
/// order (nullptr is a failed exchange) and whose refuse() refuses the
/// next `refusals` requests.
class ScriptedTransport final : public FrameTransport {
 public:
  explicit ScriptedTransport(SimClock& clock) : FrameTransport(clock) {}

  std::deque<ResponseFrame> replies;
  unsigned refusals = 0;

 private:
  bool refuse(const RequestChannel& /*request*/) override {
    if (refusals == 0) return false;
    --refusals;
    return true;
  }
  ResponseFrame exchange(
      const std::vector<std::uint8_t>& /*request_frame*/) override {
    ResponseFrame reply = replies.front();
    replies.pop_front();
    return reply;
  }
};

ResponseFrame frame_of(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

/// A v3 response; different `number`s give different frames of one size.
ResponseFrame v3_frame(std::uint32_t number) {
  UpdateResponse response;
  response.next_update_after = 20;
  response.lists.push_back(
      {"list", {Chunk{number, ChunkType::kAdd, {number, number + 7}}}});
  return frame_of(wire::encode_update_response(response));
}

/// A v4 response; different `checksum`s give different frames of one size.
ResponseFrame v4_frame(std::uint32_t checksum) {
  V4UpdateResponse response;
  response.minimum_wait = 20;
  V4SliceUpdate slice;
  slice.list_name = "list";
  slice.new_state = 3;
  slice.removal_indices = {1, 4};
  slice.additions = {0x1000, 0x2000, 0x9000};
  slice.checksum = checksum;
  response.lists.push_back(slice);
  return frame_of(wire::encode_v4_update_response(response));
}

/// Sends one v3 update request; the reply re-encoded, or nullopt.
std::optional<std::vector<std::uint8_t>> send_v3(Transport& transport) {
  const auto response = transport.fetch_update_or_error({});
  if (!response) return std::nullopt;
  return wire::encode_update_response(*response);
}

std::optional<std::vector<std::uint8_t>> send_v4(Transport& transport) {
  const auto response = transport.fetch_v4_update_or_error({});
  if (!response) return std::nullopt;
  return wire::encode_v4_update_response(*response);
}

using Send = std::optional<std::vector<std::uint8_t>> (*)(Transport&);

class DecodeMemoTest : public ::testing::TestWithParam<bool> {
 protected:
  /// The channel under test: v3 chunked or v4 sliced.
  [[nodiscard]] static bool v4() { return GetParam(); }
  [[nodiscard]] static ResponseFrame frame(std::uint32_t variant) {
    return v4() ? v4_frame(variant) : v3_frame(variant);
  }
  [[nodiscard]] static Send send() { return v4() ? &send_v4 : &send_v3; }

  SimClock clock_;
  ScriptedTransport transport_{clock_};
};

INSTANTIATE_TEST_SUITE_P(Channels, DecodeMemoTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "V4" : "V3";
                         });

TEST_P(DecodeMemoTest, ReusedDecodeEqualsFreshDecode) {
  const ResponseFrame a = frame(1);
  const ResponseFrame b = frame(2);
  ASSERT_EQ(a->size(), b->size());
  ASSERT_NE(*a, *b);
  // The same buffer (a hit), a byte-equal copy in another buffer (a hit),
  // a different frame of the same size (decoded), again (a hit), then the
  // first frame again (decoded: the memo holds b now).
  transport_.replies = {a, a, frame_of(*a), b, b, a};
  const std::vector<ResponseFrame> expected = {a, a, a, b, b, a};
  const std::vector<std::uint64_t> reuses = {0, 1, 2, 2, 3, 3};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto got = send()(transport_);
    ASSERT_TRUE(got.has_value()) << "reply " << i;
    EXPECT_EQ(*got, *expected[i]) << "reply " << i;  // re-encodes to its frame
    EXPECT_EQ(transport_.update_decode_reuses(), reuses[i]) << "reply " << i;
  }
  EXPECT_EQ(transport_.stats().failed_requests, 0u);
}

TEST_P(DecodeMemoTest, UndecodableFrameIsNeverMemoized) {
  const ResponseFrame good = frame(1);
  std::vector<std::uint8_t> truncated = *good;
  truncated.pop_back();
  const ResponseFrame bad = frame_of(truncated);
  transport_.replies = {good, bad, bad, good};
  EXPECT_TRUE(send()(transport_).has_value());
  EXPECT_FALSE(send()(transport_).has_value());
  EXPECT_EQ(transport_.stats().failed_requests, 1u);
  EXPECT_FALSE(send()(transport_).has_value());  // decoded, and failed, again
  EXPECT_EQ(transport_.stats().failed_requests, 2u);
  const auto again = send()(transport_);  // the memo still holds `good`
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *good);
  EXPECT_EQ(transport_.update_decode_reuses(), 1u);
  EXPECT_EQ(transport_.stats().failed_requests, 2u);
}

TEST_P(DecodeMemoTest, RefusedAndFailedRequestsLeaveTheMemo) {
  const ResponseFrame a = frame(1);
  transport_.replies = {a, nullptr, a};
  ASSERT_TRUE(send()(transport_).has_value());
  transport_.refusals = 1;
  EXPECT_FALSE(send()(transport_).has_value());  // refused before exchange
  EXPECT_FALSE(send()(transport_).has_value());  // the exchange failed
  EXPECT_EQ(transport_.stats().failed_requests, 2u);
  const auto got = send()(transport_);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, *a);
  EXPECT_EQ(transport_.update_decode_reuses(), 1u);
}

TEST(DecodeMemo, V3AndV4MemosNeverAnswerForEachOther) {
  SimClock clock;
  ScriptedTransport transport(clock);
  const ResponseFrame v3 = v3_frame(1);
  const ResponseFrame v4 = v4_frame(1);
  // A v3 frame on the v4 channel is undecodable there, even right after
  // the v3 channel decoded the same buffer.
  transport.replies = {v3, v3, v4, v3, v4, v4};
  EXPECT_TRUE(send_v3(transport).has_value());
  EXPECT_FALSE(send_v4(transport).has_value());
  EXPECT_EQ(transport.stats().failed_requests, 1u);
  EXPECT_EQ(transport.update_decode_reuses(), 0u);
  // Each channel keeps its own last frame: v4 traffic does not evict v3's.
  EXPECT_EQ(send_v4(transport), *v4);
  EXPECT_EQ(send_v3(transport), *v3);
  EXPECT_EQ(transport.update_decode_reuses(), 1u);
  // The v3 frame is not an answer on the v4 channel, nor v4's on v3.
  EXPECT_FALSE(send_v3(transport).has_value());
  EXPECT_EQ(send_v4(transport), *v4);
  EXPECT_EQ(transport.update_decode_reuses(), 2u);
  EXPECT_EQ(transport.stats().failed_requests, 2u);
}

TEST(DecodeMemo, StatsEqualAFreshTransportPerRequest) {
  const ResponseFrame a3 = v3_frame(1);
  const ResponseFrame b3 = v3_frame(2);
  const ResponseFrame a4 = v4_frame(1);
  std::vector<std::uint8_t> truncated = *a4;
  truncated.pop_back();
  // (reply, v4 channel?, refused?)
  const std::vector<std::tuple<ResponseFrame, bool, bool>> script = {
      {a3, false, false},  {a3, false, false}, {frame_of(*a3), false, false},
      {b3, false, false},  {a4, true, false},  {a4, true, false},
      {frame_of(truncated), true, false},      {nullptr, true, false},
      {nullptr, false, true}, {a4, true, false}, {a3, false, false},
  };
  SimClock clock;
  ScriptedTransport memoized(clock);
  TransportStats fresh_total;
  for (const auto& [reply, v4, refused] : script) {
    ScriptedTransport fresh(clock);
    for (ScriptedTransport* transport : {&memoized, &fresh}) {
      if (refused) {
        transport->refusals = 1;
      } else {
        transport->replies.push_back(reply);
      }
    }
    const auto got = v4 ? send_v4(memoized) : send_v3(memoized);
    const auto want = v4 ? send_v4(fresh) : send_v3(fresh);
    EXPECT_EQ(got, want);
    EXPECT_EQ(fresh.update_decode_reuses(), 0u);
    fresh_total += fresh.stats();
  }
  EXPECT_EQ(memoized.update_decode_reuses(), 4u);
  for (const auto& field : TransportStats::kCounters) {
    EXPECT_EQ(memoized.stats().*field.member, fresh_total.*field.member)
        << field.name;
  }
}

}  // namespace
}  // namespace sbp::sb
