#include "net/frame_codec.hpp"

#include <cstring>

namespace sbp::net {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) value = value << 8 | p[i];
  return value;
}

}  // namespace

void append_envelope(std::vector<std::uint8_t>& out, std::uint64_t tick,
                     std::span<const std::uint8_t> payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u64(out, tick);
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> encode_envelope(
    std::uint64_t tick, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kEnvelopeHeaderBytes + payload.size());
  append_envelope(out, tick, payload);
  return out;
}

std::optional<EnvelopeHeader> decode_envelope_header(
    const std::uint8_t* bytes) {
  const EnvelopeHeader header{get_u32(bytes), get_u64(bytes + 4)};
  if (header.payload_len > kMaxPayloadBytes) return std::nullopt;
  return header;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  if (error_) return;  // poisoned: drop everything until the close
  buffer_.insert(buffer_.end(), data, data + n);
}

std::optional<Envelope> FrameDecoder::next() {
  if (error_ || buffer_.size() < kEnvelopeHeaderBytes) return std::nullopt;
  const auto header = decode_envelope_header(buffer_.data());
  if (!header) {
    // Nothing is allocated for the bogus length; the stream is
    // unrecoverable (we cannot know where the next frame starts).
    error_ = true;
    buffer_.clear();
    buffer_.shrink_to_fit();
    return std::nullopt;
  }
  const std::size_t total = kEnvelopeHeaderBytes + header->payload_len;
  if (buffer_.size() < total) return std::nullopt;

  Envelope envelope;
  envelope.tick = header->tick;
  envelope.payload.assign(buffer_.begin() + kEnvelopeHeaderBytes,
                          buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  return envelope;
}

}  // namespace sbp::net
