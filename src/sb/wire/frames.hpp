// Wire frames of the versioned Safe Browsing protocol (src/sb/wire).
//
// One encode/decode pair per message that crosses the client<->server
// boundary, tagged by generation:
//
//   v1 (Lookup API, Section 2.2)   LookupRequest: the URL in clear + cookie
//                                  LookupResponse: one verdict byte
//   v3 (chunked, the paper's GSB)  UpdateRequest: per-list chunk inventory
//                                  UpdateResponse: missing shavar chunks
//                                  FullHashRequest: cookie + 32-bit prefixes
//                                  FullHashResponse: per-prefix full digests
//   v4 (sliced, post-paper)        V4UpdateRequest: per-list state token
//                                  V4UpdateResponse: Rice-coded raw-hash
//                                                    slices + minimum wait
//
// The full-hash exchange is shared by v3 and v4. Transport refuses to
// carry anything but these frames, which is what makes TransportStats
// byte counters true wire sizes -- the privacy-vs-bandwidth comparison the
// paper draws between generations (and bench_protocol_bandwidth measures).
//
// Decoders are total: truncation, corruption, varint overflow, absurd
// length fields and trailing garbage all return nullopt, never UB. Each
// decode requires the frame to be consumed exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sb/server.hpp"

namespace sbp::sb::wire {

/// Leading tag byte of every frame (high nibble = generation).
enum class FrameType : std::uint8_t {
  kV1LookupRequest = 0x11,
  kV1LookupResponse = 0x12,
  kFullHashRequest = 0x31,   // shared by v3 and v4
  kFullHashResponse = 0x32,
  kUpdateRequest = 0x33,
  kUpdateResponse = 0x34,
  kV4UpdateRequest = 0x41,
  kV4UpdateResponse = 0x42,
};

struct V1LookupRequest {
  Cookie cookie = 0;
  std::string url;
};

struct V1LookupResponse {
  bool malicious = false;
};

struct FullHashRequest {
  Cookie cookie = 0;
  std::vector<crypto::Prefix32> prefixes;
};

// Update/full-hash response payloads reuse the sb:: structs directly
// (UpdateRequest, UpdateResponse, FullHashResponse, V4UpdateRequest,
// V4UpdateResponse) -- the wire layer is the only serialization of them.

[[nodiscard]] std::vector<std::uint8_t> encode_v1_lookup_request(
    const V1LookupRequest& request);
/// The same frame, written into `out`'s storage.
void encode_v1_lookup_request_into(const V1LookupRequest& request,
                                   std::vector<std::uint8_t>& out);
[[nodiscard]] std::optional<V1LookupRequest> decode_v1_lookup_request(
    std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_v1_lookup_response(
    const V1LookupResponse& response);
[[nodiscard]] std::optional<V1LookupResponse> decode_v1_lookup_response(
    std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_full_hash_request(
    const FullHashRequest& request);
/// The same frame, written into `out`'s storage.
void encode_full_hash_request_into(const FullHashRequest& request,
                                   std::vector<std::uint8_t>& out);
[[nodiscard]] std::optional<FullHashRequest> decode_full_hash_request(
    std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_full_hash_response(
    const FullHashResponse& response);
[[nodiscard]] std::optional<FullHashResponse> decode_full_hash_response(
    std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_update_request(
    const UpdateRequest& request);
/// The same frame, written into `out`'s storage.
void encode_update_request_into(const UpdateRequest& request,
                                std::vector<std::uint8_t>& out);
[[nodiscard]] std::optional<UpdateRequest> decode_update_request(
    std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_update_response(
    const UpdateResponse& response);
[[nodiscard]] std::optional<UpdateResponse> decode_update_response(
    std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_v4_update_request(
    const V4UpdateRequest& request);
/// The same frame, written into `out`'s storage.
void encode_v4_update_request_into(const V4UpdateRequest& request,
                                   std::vector<std::uint8_t>& out);
[[nodiscard]] std::optional<V4UpdateRequest> decode_v4_update_request(
    std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_v4_update_response(
    const V4UpdateResponse& response);
[[nodiscard]] std::optional<V4UpdateResponse> decode_v4_update_response(
    std::span<const std::uint8_t> frame);

}  // namespace sbp::sb::wire
