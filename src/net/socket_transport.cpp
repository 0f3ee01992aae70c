#include "net/socket_transport.hpp"

#include <memory>

#include "net/frame_codec.hpp"

namespace sbp::net {

SocketTransport::SocketTransport(const std::string& endpoint_spec,
                                 sb::SimClock& clock)
    : FrameTransport(clock) {
  std::string error;
  const auto endpoint = parse_endpoint(endpoint_spec, &error);
  if (!endpoint) {
    error_ = error;
    return;
  }
  fd_ = connect_endpoint(*endpoint, &error);
  if (!fd_.valid()) error_ = error;
}

void SocketTransport::fail(const std::string& what) {
  if (error_.empty()) error_ = what;
  fd_.reset();
}

bool SocketTransport::refuse(const sb::RequestChannel& /*request*/) {
  return !fd_.valid();
}

sb::ResponseFrame SocketTransport::exchange(
    const std::vector<std::uint8_t>& request_frame) {
  const std::vector<std::uint8_t> envelope =
      encode_envelope(clock_.now(), request_frame);
  if (!write_all(fd_.get(), envelope.data(), envelope.size())) {
    fail("write failed");
    return nullptr;
  }

  std::uint8_t header_bytes[kEnvelopeHeaderBytes];
  if (!read_exact(fd_.get(), header_bytes, sizeof(header_bytes))) {
    fail("short read on response header");
    return nullptr;
  }
  const auto header = decode_envelope_header(header_bytes);
  if (!header) {
    fail("oversize response payload");
    return nullptr;
  }
  auto payload =
      std::make_shared<std::vector<std::uint8_t>>(header->payload_len);
  if (!payload->empty() &&
      !read_exact(fd_.get(), payload->data(), payload->size())) {
    fail("short read on response payload");
    return nullptr;
  }
  return payload;
}

}  // namespace sbp::net
