// Robustness fuzzing of the wire formats: random byte soup must never
// crash, hang, or be accepted as valid protocol data beyond what the
// format allows. Covers the legacy chunk format AND every
// protocol frame type (v1 lookup, v3 update, full-hash, v4 sliced update):
// random soup, truncations of valid frames, and single-byte corruption.
// The same inputs also go through Server::serve_frame, the byte-level
// dispatch both transports share. Deterministic seeds keep failures
// reproducible.
#include <gtest/gtest.h>

#include <span>

#include "net/frame_codec.hpp"
#include "sb/chunk.hpp"
#include "sb/wire/frames.hpp"
#include "sb/wire/rice.hpp"
#include "util/rng.hpp"

namespace sbp::sb {
namespace {

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.next_below(max_len + 1));
  for (auto& byte : out) byte = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// Random bytes behind a valid tag byte, so the fuzz reaches the body
/// parsers instead of dying at the tag check.
std::vector<std::uint8_t> tagged_random_bytes(util::Rng& rng,
                                              std::size_t max_len) {
  static constexpr std::uint8_t kTags[] = {0x11, 0x12, 0x31, 0x32,
                                           0x33, 0x34, 0x41, 0x42};
  auto bytes = random_bytes(rng, max_len);
  bytes.insert(bytes.begin(), kTags[rng.next_below(std::size(kTags))]);
  return bytes;
}

class WireFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzzTest, ChunkDeserializeNeverCrashes) {
  util::Rng rng(100 + GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, 64);
    std::size_t offset = 0;
    const auto chunk = deserialize_chunk(bytes, offset);
    if (chunk) {
      // Accepted chunks must be internally consistent with the input size.
      EXPECT_LE(offset, bytes.size());
      EXPECT_EQ(offset, 9 + 4 * chunk->prefixes.size());
    } else {
      EXPECT_EQ(offset, 0u);  // failure leaves the cursor untouched
    }
  }
}

TEST_P(WireFuzzTest, ChunkBitflipRoundTrip) {
  // Serialize a real chunk, flip one byte, deserialize: must either fail or
  // produce a chunk that re-serializes consistently (no corruption
  // amplification).
  util::Rng rng(200 + GetParam());
  Chunk chunk;
  chunk.number = 7;
  chunk.type = ChunkType::kAdd;
  for (int i = 0; i < 5; ++i) {
    chunk.prefixes.push_back(static_cast<crypto::Prefix32>(rng.next()));
  }
  const auto golden = serialize_chunk(chunk);
  for (int i = 0; i < 500; ++i) {
    auto mutated = golden;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    std::size_t offset = 0;
    const auto decoded = deserialize_chunk(mutated, offset);
    if (decoded) {
      const auto reserialized = serialize_chunk(*decoded);
      EXPECT_EQ(reserialized.size(), offset);
    }
  }
}

// -- protocol frames --------------------------------------------------------

/// Calls every frame decoder on `bytes`; decoding may succeed or fail, but
/// must never crash, hang, or allocate absurdly. Successful decodes must
/// re-encode to a frame the decoder accepts again (no corruption
/// amplification).
void exercise_all_decoders(std::span<const std::uint8_t> bytes) {
  if (const auto v = wire::decode_v1_lookup_request(bytes)) {
    EXPECT_TRUE(wire::decode_v1_lookup_request(
                    wire::encode_v1_lookup_request(*v))
                    .has_value());
  }
  if (const auto v = wire::decode_v1_lookup_response(bytes)) {
    EXPECT_TRUE(wire::decode_v1_lookup_response(
                    wire::encode_v1_lookup_response(*v))
                    .has_value());
  }
  if (const auto v = wire::decode_full_hash_request(bytes)) {
    // Re-encoding is canonical, so it can only shrink (non-minimal varints
    // in the soup), never grow -- and must decode again.
    const auto reencoded = wire::encode_full_hash_request(*v);
    EXPECT_LE(reencoded.size(), bytes.size());
    EXPECT_TRUE(wire::decode_full_hash_request(reencoded).has_value());
  }
  if (const auto v = wire::decode_full_hash_response(bytes)) {
    EXPECT_TRUE(wire::decode_full_hash_response(
                    wire::encode_full_hash_response(*v))
                    .has_value());
  }
  if (const auto v = wire::decode_update_request(bytes)) {
    EXPECT_TRUE(
        wire::decode_update_request(wire::encode_update_request(*v))
            .has_value());
  }
  if (const auto v = wire::decode_update_response(bytes)) {
    EXPECT_TRUE(
        wire::decode_update_response(wire::encode_update_response(*v))
            .has_value());
  }
  if (const auto v = wire::decode_v4_update_request(bytes)) {
    const auto reencoded = wire::encode_v4_update_request(*v);
    EXPECT_LE(reencoded.size(), bytes.size());
    EXPECT_TRUE(wire::decode_v4_update_request(reencoded).has_value());
  }
  if (const auto v = wire::decode_v4_update_response(bytes)) {
    EXPECT_TRUE(wire::decode_v4_update_response(
                    wire::encode_v4_update_response(*v))
                    .has_value());
  }
}

TEST_P(WireFuzzTest, FrameDecodersSurviveRandomSoup) {
  util::Rng rng(500 + GetParam());
  for (int i = 0; i < 2000; ++i) {
    exercise_all_decoders(random_bytes(rng, 128));
  }
}

TEST_P(WireFuzzTest, FrameDecodersSurviveTaggedRandomSoup) {
  // Same, but with a valid tag byte up front so the fuzz reaches the body
  // parsers instead of dying at the tag check.
  util::Rng rng(600 + GetParam());
  for (int i = 0; i < 2000; ++i) {
    exercise_all_decoders(tagged_random_bytes(rng, 128));
  }
}

std::vector<std::vector<std::uint8_t>> golden_frames(util::Rng& rng) {
  UpdateResponse update_response;
  update_response.next_update_after = 600;
  Chunk chunk;
  chunk.number = 3;
  for (int i = 0; i < 6; ++i) {
    chunk.prefixes.push_back(static_cast<crypto::Prefix32>(rng.next()));
  }
  update_response.lists.push_back({"goog-malware-shavar", {chunk}});

  V4UpdateResponse v4_response;
  v4_response.minimum_wait = 300;
  V4SliceUpdate slice;
  slice.list_name = "goog-malware-proto";
  slice.new_state = 4;
  slice.removal_indices = {1, 4, 9};
  std::uint64_t value = 0;
  for (int i = 0; i < 32; ++i) {
    value += 1 + rng.next_below(1 << 24);
    if (value > 0xFFFFFFFFull) break;
    slice.additions.push_back(static_cast<std::uint32_t>(value));
  }
  slice.checksum = static_cast<std::uint32_t>(rng.next());
  v4_response.lists.push_back(slice);

  FullHashResponse full_hash_response;
  const crypto::Digest256 digest = crypto::Digest256::of("evil.example/");
  full_hash_response.matches[digest.prefix32()] = {{"list", digest}};

  return {
      wire::encode_v1_lookup_request({77, "http://fuzz.example/x?y=1"}),
      wire::encode_full_hash_request(
          {42, {0x01020304, 0xA1B2C3D4, 0xFFFFFFFF}}),
      wire::encode_full_hash_response(full_hash_response),
      wire::encode_update_request({{{"goog-malware-shavar", {1, 2}, {}}}}),
      wire::encode_update_response(update_response),
      wire::encode_v4_update_request({{{"goog-malware-proto", 9}}}),
      wire::encode_v4_update_response(v4_response),
  };
}

TEST_P(WireFuzzTest, FrameBitflipsNeverCrashOrAmplify) {
  util::Rng rng(700 + GetParam());
  for (const auto& golden : golden_frames(rng)) {
    for (int i = 0; i < 300; ++i) {
      auto mutated = golden;
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
      exercise_all_decoders(mutated);
    }
  }
}

TEST_P(WireFuzzTest, FrameTruncationsAlwaysError) {
  util::Rng rng(800 + GetParam());
  for (const auto& golden : golden_frames(rng)) {
    for (std::size_t cut = 0; cut < golden.size(); ++cut) {
      const std::span<const std::uint8_t> prefix{golden.data(), cut};
      // A truncated frame must never decode as ANY type: the tag check
      // rejects foreign decoders, and the frame's own decoder must detect
      // the truncation.
      EXPECT_FALSE(wire::decode_v1_lookup_request(prefix).has_value());
      EXPECT_FALSE(wire::decode_v1_lookup_response(prefix).has_value());
      EXPECT_FALSE(wire::decode_full_hash_request(prefix).has_value());
      EXPECT_FALSE(wire::decode_full_hash_response(prefix).has_value());
      EXPECT_FALSE(wire::decode_update_request(prefix).has_value());
      EXPECT_FALSE(wire::decode_update_response(prefix).has_value());
      EXPECT_FALSE(wire::decode_v4_update_request(prefix).has_value());
      EXPECT_FALSE(wire::decode_v4_update_response(prefix).has_value());
    }
  }
}

// -- Server::serve_frame ----------------------------------------------------

/// A server holding the lists the golden frames name, so fuzzed update
/// requests reach real diffs.
Server fuzz_server() {
  Server server;
  server.add_expression("goog-malware-shavar", "evil.example/");
  server.add_orphan_prefix("goog-malware-shavar", 0x01020304);
  server.seal_chunk("goog-malware-shavar");
  server.add_expression("goog-malware-proto", "worse.example/path");
  server.seal_chunk("goog-malware-proto");
  return server;
}

/// Serves `frame`: it must get a reply exactly when it decodes as one of
/// the four requests, the reply must be that request's response frame,
/// and a frame without a reply must log no query.
void expect_serve_frame_contract(Server& server,
                                 const std::vector<std::uint8_t>& frame) {
  const bool request = wire::decode_full_hash_request(frame) ||
                       wire::decode_v1_lookup_request(frame) ||
                       wire::decode_update_request(frame) ||
                       wire::decode_v4_update_request(frame);
  const std::size_t logged = server.query_log().size();
  const ResponseFrame reply = server.serve_frame(frame, /*tick=*/9);
  ASSERT_EQ(reply != nullptr, request);
  if (reply == nullptr) {
    EXPECT_EQ(server.query_log().size(), logged);
    return;
  }
  ASSERT_FALSE(reply->empty());
  EXPECT_EQ((*reply)[0], frame[0] + 1);  // each response tag = request + 1
  exercise_all_decoders(*reply);
}

TEST_P(WireFuzzTest, ServeFrameAnswersOnlyDecodableRequests) {
  util::Rng rng(1300 + GetParam());
  Server server = fuzz_server();
  for (int i = 0; i < 1000; ++i) {
    expect_serve_frame_contract(server, random_bytes(rng, 128));
    expect_serve_frame_contract(server, tagged_random_bytes(rng, 128));
  }
  for (const auto& golden : golden_frames(rng)) {
    expect_serve_frame_contract(server, golden);
    for (int i = 0; i < 300; ++i) {
      auto mutated = golden;
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
      expect_serve_frame_contract(server, mutated);
    }
  }
}

TEST_P(WireFuzzTest, ServeFrameIgnoresTruncatedFrames) {
  util::Rng rng(1400 + GetParam());
  Server server = fuzz_server();
  for (const auto& golden : golden_frames(rng)) {
    for (std::size_t cut = 0; cut < golden.size(); ++cut) {
      const std::vector<std::uint8_t> truncated(
          golden.begin(), golden.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_EQ(server.serve_frame(truncated, /*tick=*/9), nullptr);
    }
  }
  EXPECT_TRUE(server.query_log().empty());
  EXPECT_EQ(server.update_encode_cache_hits(), 0u);
}

TEST_P(WireFuzzTest, RiceDecoderSurvivesRandomSoup) {
  util::Rng rng(900 + GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, 96);
    wire::Reader reader(bytes);
    const auto values = wire::rice_decode_sorted(reader, 1 << 16);
    if (values) {
      // Anything accepted must satisfy the codec's contract.
      for (std::size_t j = 1; j < values->size(); ++j) {
        EXPECT_LT((*values)[j - 1], (*values)[j]);
      }
    }
  }
}

// -- network envelope framing -----------------------------------------------
// The length-prefixed envelope is the only format that crosses a socket
// before the frame decoders above get involved, so it fuzzes under the
// same harness: random soup, arbitrary fragmentation, and bitflips must
// never crash the FrameDecoder or make it surface an over-limit payload.

TEST_P(WireFuzzTest, FramingDecoderSurvivesRandomSoup) {
  util::Rng rng(1000 + GetParam());
  for (int i = 0; i < 300; ++i) {
    net::FrameDecoder decoder;
    // Several feeds of soup, as a socket would deliver them.
    for (int feed = 0; feed < 8 && !decoder.error(); ++feed) {
      const auto bytes = random_bytes(rng, 96);
      decoder.feed(bytes.data(), bytes.size());
      while (const auto envelope = decoder.next()) {
        // Whatever the soup declared, the limit holds.
        EXPECT_LE(envelope->payload.size(), net::kMaxPayloadBytes);
        // Envelopes that surface feed the frame decoders; same no-crash
        // contract end to end.
        exercise_all_decoders(envelope->payload);
      }
    }
  }
}

TEST_P(WireFuzzTest, FramingReassemblesIdenticallyUnderAnyFragmentation) {
  // One valid multi-envelope stream, delivered in random-size fragments:
  // the decoder must yield the exact same envelope sequence every time.
  util::Rng rng(1100 + GetParam());
  const auto frames = golden_frames(rng);
  std::vector<std::uint8_t> stream;
  std::vector<net::Envelope> expected;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto envelope = net::encode_envelope(i * 17 + 1, frames[i]);
    stream.insert(stream.end(), envelope.begin(), envelope.end());
    expected.push_back({i * 17 + 1, frames[i]});
  }

  for (int round = 0; round < 200; ++round) {
    net::FrameDecoder decoder;
    std::vector<net::Envelope> got;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t step =
          1 + rng.next_below(stream.size() - offset);
      decoder.feed(stream.data() + offset, step);
      offset += step;
      while (auto envelope = decoder.next()) {
        got.push_back(std::move(*envelope));
      }
    }
    ASSERT_FALSE(decoder.error());
    EXPECT_EQ(decoder.buffered(), 0u);
    ASSERT_EQ(got.size(), expected.size()) << "round " << round;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].tick, expected[i].tick);
      EXPECT_EQ(got[i].payload, expected[i].payload);
    }
  }
}

TEST_P(WireFuzzTest, FramingBitflipsNeverCrashOrOverrun) {
  util::Rng rng(1200 + GetParam());
  const auto frames = golden_frames(rng);
  std::vector<std::uint8_t> stream;
  for (const auto& frame : frames) {
    const auto envelope = net::encode_envelope(42, frame);
    stream.insert(stream.end(), envelope.begin(), envelope.end());
  }
  for (int i = 0; i < 500; ++i) {
    auto mutated = stream;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    net::FrameDecoder decoder;
    decoder.feed(mutated.data(), mutated.size());
    while (const auto envelope = decoder.next()) {
      EXPECT_LE(envelope->payload.size(), net::kMaxPayloadBytes);
      exercise_all_decoders(envelope->payload);
    }
    // A flip in a length field may poison the stream or silently shift
    // framing; either way the decoder stays bounded and error-stable.
    if (decoder.error()) {
      EXPECT_EQ(decoder.buffered(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace sbp::sb
