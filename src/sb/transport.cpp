#include "sb/transport.hpp"

namespace sbp::sb {

namespace {

constexpr RequestChannel kRequestChannels[] = {
    {wire::FrameType::kFullHashRequest, obs::Channel::kFullHash,
     &TransportStats::full_hash_requests, false},
    {wire::FrameType::kUpdateRequest, obs::Channel::kV3Update,
     &TransportStats::update_requests, true},
    {wire::FrameType::kV4UpdateRequest, obs::Channel::kV4Update,
     &TransportStats::v4_update_requests, true},
    {wire::FrameType::kV1LookupRequest, obs::Channel::kV1Lookup,
     &TransportStats::v1_requests, false},
};

}  // namespace

const RequestChannel* request_channel(std::uint8_t tag) noexcept {
  for (const RequestChannel& channel : kRequestChannels) {
    if (static_cast<std::uint8_t>(channel.tag) == tag) return &channel;
  }
  return nullptr;
}

SharedUpdate Transport::fetch_update_shared(const UpdateRequest& request) {
  auto response = fetch_update_or_error(request);
  if (!response) return {};
  return {std::make_shared<const UpdateResponse>(std::move(*response)),
          nullptr};
}

SharedV4Update Transport::fetch_v4_update_shared(
    const V4UpdateRequest& request) {
  auto response = fetch_v4_update_or_error(request);
  if (!response) return {};
  return {std::make_shared<const V4UpdateResponse>(std::move(*response)),
          nullptr};
}

// Nothing but the encoded frame crosses exchange(), so nothing that is not
// in the frame can reach the server, and the billed sizes are true wire
// sizes.
template <typename Request>
ResponseFrame FrameTransport::round_trip(const RequestChannel& channel,
                                         const Request& request,
                                         Encode<Request> encode,
                                         std::uint64_t& start_ns) {
  if (refuse(channel)) {
    ++stats_.failed_requests;
    return nullptr;
  }
  start_ns = obs_ != nullptr ? obs::now_ns() : 0;
  encode(request, request_frame_);
  channel.count_request(stats_, request_frame_.size());
  ResponseFrame response_frame = exchange(request_frame_);
  if (response_frame == nullptr) {
    ++stats_.failed_requests;
    return nullptr;
  }
  channel.count_response(stats_, response_frame->size());
  return response_frame;
}

template <typename Request, typename Response>
std::optional<Response> FrameTransport::send(wire::FrameType tag,
                                             const Request& request,
                                             Encode<Request> encode,
                                             Decode<Response> decode) {
  const RequestChannel& channel =
      *request_channel(static_cast<std::uint8_t>(tag));
  std::uint64_t start_ns = 0;
  const ResponseFrame frame = round_trip(channel, request, encode, start_ns);
  if (frame == nullptr) return std::nullopt;
  std::optional<Response> response = decode(*frame);
  if (!response) {
    ++stats_.failed_requests;
    return std::nullopt;
  }
  record_obs(channel.channel, request_frame_.size(), frame->size(), start_ns);
  return response;
}

template <typename Request, typename Response>
SharedResponse<Response> FrameTransport::send_update(
    wire::FrameType tag, const Request& request, Encode<Request> encode,
    Decode<Response> decode, SharedResponse<Response>& memo) {
  const RequestChannel& channel =
      *request_channel(static_cast<std::uint8_t>(tag));
  std::uint64_t start_ns = 0;
  const ResponseFrame frame = round_trip(channel, request, encode, start_ns);
  if (frame == nullptr) return {};
  if (memo.frame != nullptr &&
      (memo.frame == frame || *memo.frame == *frame)) {
    ++update_decode_reuses_;
  } else {
    std::optional<Response> response = decode(*frame);
    if (!response) {
      ++stats_.failed_requests;
      return {};
    }
    memo = {std::make_shared<const Response>(std::move(*response)), frame};
  }
  record_obs(channel.channel, request_frame_.size(), frame->size(), start_ns);
  return memo;
}

std::optional<FullHashResponse> FrameTransport::get_full_hashes_or_error(
    const std::vector<crypto::Prefix32>& prefixes, Cookie cookie) {
  return send(wire::FrameType::kFullHashRequest,
              wire::FullHashRequest{cookie, prefixes},
              &wire::encode_full_hash_request_into,
              &wire::decode_full_hash_response);
}

SharedUpdate FrameTransport::fetch_update_shared(
    const UpdateRequest& request) {
  return send_update(wire::FrameType::kUpdateRequest, request,
                     &wire::encode_update_request_into,
                     &wire::decode_update_response, v3_memo_);
}

SharedV4Update FrameTransport::fetch_v4_update_shared(
    const V4UpdateRequest& request) {
  return send_update(wire::FrameType::kV4UpdateRequest, request,
                     &wire::encode_v4_update_request_into,
                     &wire::decode_v4_update_response, v4_memo_);
}

std::optional<UpdateResponse> FrameTransport::fetch_update_or_error(
    const UpdateRequest& request) {
  const SharedUpdate response = fetch_update_shared(request);
  if (!response.value) return std::nullopt;
  return *response.value;
}

std::optional<V4UpdateResponse> FrameTransport::fetch_v4_update_or_error(
    const V4UpdateRequest& request) {
  const SharedV4Update response = fetch_v4_update_shared(request);
  if (!response.value) return std::nullopt;
  return *response.value;
}

std::optional<bool> FrameTransport::lookup_v1_or_error(std::string_view url,
                                                       Cookie cookie) {
  const auto response =
      send(wire::FrameType::kV1LookupRequest,
           wire::V1LookupRequest{cookie, std::string(url)},
           &wire::encode_v1_lookup_request_into,
           &wire::decode_v1_lookup_response);
  if (!response) return std::nullopt;
  return response->malicious;
}

bool InProcessTransport::refuse(const RequestChannel& request) {
  if (round_trip_ > 0) clock_.advance(round_trip_);
  unsigned& failures = request.update ? fail_updates_
                       : request.channel == obs::Channel::kFullHash
                           ? fail_full_hashes_
                           : fail_v1_;
  if (failures == 0) return false;
  --failures;
  return true;
}

ResponseFrame InProcessTransport::exchange(
    const std::vector<std::uint8_t>& request_frame) {
  return server_.serve_frame(request_frame, clock_.now());
}

}  // namespace sbp::sb
