// Length-prefixed envelope framing for sb::wire frames over a byte stream
// (src/net).
//
// TCP and Unix stream sockets deliver bytes, not messages; this codec
// restores the message boundary around the existing self-contained wire
// frames (sb/wire/frames.hpp) without re-encoding anything. One envelope:
//
//   u32  payload_len   little-endian, bytes of payload only
//   u64  tick          sender's deterministic SimClock reading
//   payload            exactly one sb::wire frame (tag byte first)
//
// The tick travels with every request so the daemon logs queries at the
// CLIENT'S clock -- the equivalence contract (docs/networking.md) needs the
// daemon-side query log to be bit-identical to an in-process run, and the
// server has no clock of its own. Responses echo the request tick.
//
// Byte accounting everywhere (TransportStats, obs::ChannelStats) counts
// PAYLOAD bytes only: the 12-byte envelope is this transport's own cost,
// not part of the protocol the paper's bandwidth numbers describe, and
// excluding it keeps networked byte counters equal to in-process ones.
//
// FrameDecoder is incremental: feed() accepts whatever the socket
// delivered (one byte at a time included), next() yields complete
// envelopes. A declared payload length above kMaxPayloadBytes poisons the
// decoder (error() == true) -- the connection is protocol-broken and must
// be closed; nothing is allocated for the bogus length.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace sbp::net {

/// Envelope header size on the wire: u32 payload_len + u64 tick.
inline constexpr std::size_t kEnvelopeHeaderBytes = 12;

/// Hard cap on a declared payload length. Far above any real frame (the
/// largest full-sync update of a maximal list is a few MB) yet small
/// enough that a corrupted/hostile length can't OOM the daemon.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

/// One decoded envelope.
struct Envelope {
  std::uint64_t tick = 0;
  std::vector<std::uint8_t> payload;
};

/// The fixed-size envelope header.
struct EnvelopeHeader {
  std::uint32_t payload_len = 0;
  std::uint64_t tick = 0;
};

/// Appends [header][payload] to `out` (the daemon writes replies straight
/// into a connection's output buffer this way).
void append_envelope(std::vector<std::uint8_t>& out, std::uint64_t tick,
                     std::span<const std::uint8_t> payload);

/// [header][payload] ready to write to a socket.
[[nodiscard]] std::vector<std::uint8_t> encode_envelope(
    std::uint64_t tick, const std::vector<std::uint8_t>& payload);

/// Decodes the kEnvelopeHeaderBytes at `bytes`. nullopt when the declared
/// payload length exceeds kMaxPayloadBytes: the stream is protocol-broken.
[[nodiscard]] std::optional<EnvelopeHeader> decode_envelope_header(
    const std::uint8_t* bytes);

/// Incremental stream decoder; tolerant of arbitrary read fragmentation.
class FrameDecoder {
 public:
  /// Appends raw socket bytes.
  void feed(const std::uint8_t* data, std::size_t n);

  /// Extracts the next complete envelope, or nullopt when the buffer
  /// holds only a partial one (or the decoder is poisoned).
  [[nodiscard]] std::optional<Envelope> next();

  /// True once a frame declared an oversize payload; the stream cannot be
  /// re-synchronized and the connection must be dropped.
  [[nodiscard]] bool error() const noexcept { return error_; }

  /// Bytes currently buffered (tests).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size();
  }

 private:
  std::vector<std::uint8_t> buffer_;
  bool error_ = false;
};

}  // namespace sbp::net
