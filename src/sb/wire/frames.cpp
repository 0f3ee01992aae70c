#include "sb/wire/frames.hpp"

#include <algorithm>

#include "sb/chunk.hpp"
#include "sb/wire/rice.hpp"
#include "sb/wire/wire_format.hpp"

namespace sbp::sb::wire {

namespace {

// Hard sanity caps. Anything larger is corruption by construction: list
// names are shavar identifiers, URLs are bounded by clients, and no
// deployed list exceeds a few million prefixes (paper Tables 1 and 3).
constexpr std::size_t kMaxUrlLength = 1 << 16;
constexpr std::size_t kMaxListName = 512;
constexpr std::size_t kMaxSetValues = 1 << 26;

bool expect_tag(Reader& reader, FrameType type) {
  const auto tag = reader.u8();
  return tag && *tag == static_cast<std::uint8_t>(type);
}

/// Decode epilogue: a valid frame is consumed exactly.
template <typename T>
std::optional<T> finish(Reader& reader, T&& value) {
  if (!reader.done()) return std::nullopt;
  return std::forward<T>(value);
}

}  // namespace

// -- v1 ---------------------------------------------------------------------

std::vector<std::uint8_t> encode_v1_lookup_request(
    const V1LookupRequest& request) {
  std::vector<std::uint8_t> frame;
  encode_v1_lookup_request_into(request, frame);
  return frame;
}

void encode_v1_lookup_request_into(const V1LookupRequest& request,
                                   std::vector<std::uint8_t>& out) {
  Writer writer(std::move(out));
  writer.u8(static_cast<std::uint8_t>(FrameType::kV1LookupRequest));
  writer.varint(request.cookie);
  writer.string(request.url);
  out = writer.take();
}

std::optional<V1LookupRequest> decode_v1_lookup_request(
    std::span<const std::uint8_t> frame) {
  Reader reader(frame);
  if (!expect_tag(reader, FrameType::kV1LookupRequest)) return std::nullopt;
  V1LookupRequest request;
  const auto cookie = reader.varint();
  if (!cookie) return std::nullopt;
  request.cookie = *cookie;
  auto url = reader.string(kMaxUrlLength);
  if (!url) return std::nullopt;
  request.url = std::move(*url);
  return finish(reader, std::move(request));
}

std::vector<std::uint8_t> encode_v1_lookup_response(
    const V1LookupResponse& response) {
  Writer writer;
  writer.u8(static_cast<std::uint8_t>(FrameType::kV1LookupResponse));
  writer.u8(response.malicious ? 1 : 0);
  return writer.take();
}

std::optional<V1LookupResponse> decode_v1_lookup_response(
    std::span<const std::uint8_t> frame) {
  Reader reader(frame);
  if (!expect_tag(reader, FrameType::kV1LookupResponse)) return std::nullopt;
  const auto verdict = reader.u8();
  if (!verdict || *verdict > 1) return std::nullopt;
  return finish(reader, V1LookupResponse{*verdict == 1});
}

// -- full-hash exchange (v3 + v4) -------------------------------------------

std::vector<std::uint8_t> encode_full_hash_request(
    const FullHashRequest& request) {
  std::vector<std::uint8_t> frame;
  encode_full_hash_request_into(request, frame);
  return frame;
}

void encode_full_hash_request_into(const FullHashRequest& request,
                                   std::vector<std::uint8_t>& out) {
  Writer writer(std::move(out));
  writer.u8(static_cast<std::uint8_t>(FrameType::kFullHashRequest));
  writer.varint(request.cookie);
  writer.varint(request.prefixes.size());
  for (const auto prefix : request.prefixes) writer.u32be(prefix);
  out = writer.take();
}

std::optional<FullHashRequest> decode_full_hash_request(
    std::span<const std::uint8_t> frame) {
  Reader reader(frame);
  if (!expect_tag(reader, FrameType::kFullHashRequest)) return std::nullopt;
  FullHashRequest request;
  const auto cookie = reader.varint();
  if (!cookie) return std::nullopt;
  request.cookie = *cookie;
  const auto count = reader.bounded_varint(reader.remaining() / 4);
  if (!count) return std::nullopt;
  request.prefixes.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto prefix = reader.u32be();
    if (!prefix) return std::nullopt;
    request.prefixes.push_back(*prefix);
  }
  return finish(reader, std::move(request));
}

std::vector<std::uint8_t> encode_full_hash_response(
    const FullHashResponse& response) {
  Writer writer;
  writer.u8(static_cast<std::uint8_t>(FrameType::kFullHashResponse));
  writer.varint(response.matches.size());
  for (const auto& [prefix, matches] : response.matches) {  // map: sorted
    writer.u32be(prefix);
    writer.varint(matches.size());
    for (const auto& match : matches) {
      writer.string(match.list_name);
      writer.bytes(match.digest.bytes());
    }
  }
  return writer.take();
}

std::optional<FullHashResponse> decode_full_hash_response(
    std::span<const std::uint8_t> frame) {
  Reader reader(frame);
  if (!expect_tag(reader, FrameType::kFullHashResponse)) return std::nullopt;
  FullHashResponse response;
  // Each entry costs at least 5 bytes (prefix + zero-match varint).
  const auto count = reader.bounded_varint(reader.remaining() / 5);
  if (!count) return std::nullopt;
  std::uint64_t previous = 0;
  bool first = true;
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto prefix = reader.u32be();
    if (!prefix) return std::nullopt;
    // Canonical frames list prefixes strictly increasing (map order).
    if (!first && *prefix <= previous) return std::nullopt;
    first = false;
    previous = *prefix;
    // A match costs at least 33 bytes (1-byte name length + 32 digest).
    const auto match_count = reader.bounded_varint(reader.remaining() / 33);
    if (!match_count) return std::nullopt;
    auto& matches = response.matches[*prefix];
    matches.reserve(static_cast<std::size_t>(*match_count));
    for (std::uint64_t m = 0; m < *match_count; ++m) {
      FullHashMatch match;
      auto name = reader.string(kMaxListName);
      if (!name) return std::nullopt;
      match.list_name = std::move(*name);
      crypto::Sha256::DigestBytes digest_bytes;
      const auto raw = reader.bytes(digest_bytes.size());
      if (!raw) return std::nullopt;
      std::copy(raw->begin(), raw->end(), digest_bytes.begin());
      match.digest = crypto::Digest256(digest_bytes);
      matches.push_back(std::move(match));
    }
  }
  return finish(reader, std::move(response));
}

// -- v3 chunked update ------------------------------------------------------

std::vector<std::uint8_t> encode_update_request(const UpdateRequest& request) {
  std::vector<std::uint8_t> frame;
  encode_update_request_into(request, frame);
  return frame;
}

void encode_update_request_into(const UpdateRequest& request,
                                std::vector<std::uint8_t>& out) {
  Writer writer(std::move(out));
  writer.u8(static_cast<std::uint8_t>(FrameType::kUpdateRequest));
  writer.varint(request.lists.size());
  for (const auto& state : request.lists) {
    writer.string(state.list_name);
    writer.varint(state.add_chunks.size());
    for (const auto number : state.add_chunks) writer.varint(number);
    writer.varint(state.sub_chunks.size());
    for (const auto number : state.sub_chunks) writer.varint(number);
  }
  out = writer.take();
}

std::optional<UpdateRequest> decode_update_request(
    std::span<const std::uint8_t> frame) {
  Reader reader(frame);
  if (!expect_tag(reader, FrameType::kUpdateRequest)) return std::nullopt;
  UpdateRequest request;
  const auto list_count = reader.bounded_varint(reader.remaining());
  if (!list_count) return std::nullopt;
  for (std::uint64_t i = 0; i < *list_count; ++i) {
    UpdateRequest::ListState state;
    auto name = reader.string(kMaxListName);
    if (!name) return std::nullopt;
    state.list_name = std::move(*name);
    for (auto* chunks : {&state.add_chunks, &state.sub_chunks}) {
      const auto count = reader.bounded_varint(reader.remaining());
      if (!count) return std::nullopt;
      chunks->reserve(static_cast<std::size_t>(*count));
      for (std::uint64_t c = 0; c < *count; ++c) {
        const auto number = reader.bounded_varint(0xFFFFFFFFull);
        if (!number) return std::nullopt;
        chunks->push_back(static_cast<std::uint32_t>(*number));
      }
    }
    request.lists.push_back(std::move(state));
  }
  return finish(reader, std::move(request));
}

std::vector<std::uint8_t> encode_update_response(
    const UpdateResponse& response) {
  Writer writer;
  writer.u8(static_cast<std::uint8_t>(FrameType::kUpdateResponse));
  writer.varint(response.next_update_after);
  writer.varint(response.lists.size());
  for (const auto& update : response.lists) {
    writer.string(update.list_name);
    writer.varint(update.chunks.size());
    for (const Chunk& chunk : update.chunks) {
      writer.varint(chunk_wire_size(chunk));
      write_chunk(chunk, writer);
    }
  }
  return writer.take();
}

std::optional<UpdateResponse> decode_update_response(
    std::span<const std::uint8_t> frame) {
  Reader reader(frame);
  if (!expect_tag(reader, FrameType::kUpdateResponse)) return std::nullopt;
  UpdateResponse response;
  const auto next_update_after = reader.varint();
  if (!next_update_after) return std::nullopt;
  response.next_update_after = *next_update_after;
  const auto list_count = reader.bounded_varint(reader.remaining());
  if (!list_count) return std::nullopt;
  for (std::uint64_t i = 0; i < *list_count; ++i) {
    UpdateResponse::ListUpdate update;
    auto name = reader.string(kMaxListName);
    if (!name) return std::nullopt;
    update.list_name = std::move(*name);
    const auto chunk_count = reader.bounded_varint(reader.remaining());
    if (!chunk_count) return std::nullopt;
    update.chunks.reserve(static_cast<std::size_t>(*chunk_count));
    for (std::uint64_t c = 0; c < *chunk_count; ++c) {
      const auto length = reader.bounded_varint(reader.remaining());
      if (!length) return std::nullopt;
      const auto bytes = reader.bytes(static_cast<std::size_t>(*length));
      if (!bytes) return std::nullopt;
      std::size_t offset = 0;
      const auto chunk = deserialize_chunk(*bytes, offset);
      if (!chunk || offset != bytes->size()) return std::nullopt;
      update.chunks.push_back(std::move(*chunk));
    }
    response.lists.push_back(std::move(update));
  }
  return finish(reader, std::move(response));
}

// -- v4 sliced update -------------------------------------------------------

std::vector<std::uint8_t> encode_v4_update_request(
    const V4UpdateRequest& request) {
  std::vector<std::uint8_t> frame;
  encode_v4_update_request_into(request, frame);
  return frame;
}

void encode_v4_update_request_into(const V4UpdateRequest& request,
                                   std::vector<std::uint8_t>& out) {
  Writer writer(std::move(out));
  writer.u8(static_cast<std::uint8_t>(FrameType::kV4UpdateRequest));
  writer.varint(request.lists.size());
  for (const auto& state : request.lists) {
    writer.string(state.list_name);
    writer.varint(state.state);
  }
  out = writer.take();
}

std::optional<V4UpdateRequest> decode_v4_update_request(
    std::span<const std::uint8_t> frame) {
  Reader reader(frame);
  if (!expect_tag(reader, FrameType::kV4UpdateRequest)) return std::nullopt;
  V4UpdateRequest request;
  const auto list_count = reader.bounded_varint(reader.remaining());
  if (!list_count) return std::nullopt;
  for (std::uint64_t i = 0; i < *list_count; ++i) {
    V4UpdateRequest::ListState state;
    auto name = reader.string(kMaxListName);
    if (!name) return std::nullopt;
    state.list_name = std::move(*name);
    const auto token = reader.varint();
    if (!token) return std::nullopt;
    state.state = *token;
    request.lists.push_back(std::move(state));
  }
  return finish(reader, std::move(request));
}

std::vector<std::uint8_t> encode_v4_update_response(
    const V4UpdateResponse& response) {
  Writer writer;
  writer.u8(static_cast<std::uint8_t>(FrameType::kV4UpdateResponse));
  writer.varint(response.minimum_wait);
  writer.varint(response.lists.size());
  for (const auto& slice : response.lists) {
    writer.string(slice.list_name);
    writer.u8(slice.full_reset ? 1 : 0);
    writer.varint(slice.new_state);
    rice_encode_sorted(slice.removal_indices, writer);
    rice_encode_sorted(slice.additions, writer);
    writer.u32be(slice.checksum);
  }
  return writer.take();
}

std::optional<V4UpdateResponse> decode_v4_update_response(
    std::span<const std::uint8_t> frame) {
  Reader reader(frame);
  if (!expect_tag(reader, FrameType::kV4UpdateResponse)) return std::nullopt;
  V4UpdateResponse response;
  const auto minimum_wait = reader.varint();
  if (!minimum_wait) return std::nullopt;
  response.minimum_wait = *minimum_wait;
  const auto list_count = reader.bounded_varint(reader.remaining());
  if (!list_count) return std::nullopt;
  for (std::uint64_t i = 0; i < *list_count; ++i) {
    V4SliceUpdate slice;
    auto name = reader.string(kMaxListName);
    if (!name) return std::nullopt;
    slice.list_name = std::move(*name);
    const auto reset = reader.u8();
    if (!reset || *reset > 1) return std::nullopt;
    slice.full_reset = *reset == 1;
    const auto new_state = reader.varint();
    if (!new_state) return std::nullopt;
    slice.new_state = *new_state;
    auto removals = rice_decode_sorted(reader, kMaxSetValues);
    if (!removals) return std::nullopt;
    slice.removal_indices = std::move(*removals);
    auto additions = rice_decode_sorted(reader, kMaxSetValues);
    if (!additions) return std::nullopt;
    slice.additions = std::move(*additions);
    const auto checksum = reader.u32be();
    if (!checksum) return std::nullopt;
    slice.checksum = *checksum;
    response.lists.push_back(std::move(slice));
  }
  return finish(reader, std::move(response));
}

}  // namespace sbp::sb::wire
