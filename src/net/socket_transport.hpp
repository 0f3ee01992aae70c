// sb::Transport over a stream socket (src/net).
//
// The networked twin of sb::InProcessTransport. Both are sb::FrameTransport,
// which encodes, bills, decodes and records every request; this class adds
// only the byte exchange -- the request frame wrapped in the envelope
// framing of net/frame_codec.hpp and round-tripped synchronously over one
// TCP or Unix connection to a running sbserved -- and the refusal of every
// request once the connection is gone. Synchronous blocking IO is
// deliberate -- the engine's client model is one outstanding request per
// client, so a request/response pipeline would buy nothing and cost the
// determinism argument (docs/networking.md).
//
// Equivalence contract: byte counters (TransportStats, obs) count frame
// payload bytes only -- identical to InProcessTransport for the same
// request stream -- and every request carries clock().now() so the daemon
// logs queries at this client's deterministic tick. Like the engine's
// default in-process wiring, the clock is never advanced by transport
// (round-trip time is wall-clock, not simulated ticks).
//
// Failure model: any socket error (connect refused, EOF mid-response,
// oversize response length) closes the connection, sets error(), counts
// failed_requests, and makes every subsequent request fail fast with
// nullopt -- the same nullopt surface the client retry logic already
// handles for injected failures. No reconnects: a scenario run is one
// connection per shard, and a daemon restart mid-run would break the
// equivalence contract anyway. A well-framed but undecodable response is
// a failed request too; the envelope stream is still in step, so the
// connection stays open.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "sb/transport.hpp"

namespace sbp::net {

class SocketTransport final : public sb::FrameTransport {
 public:
  /// Connects to `endpoint_spec` ("tcp:HOST:PORT" or "unix:/PATH")
  /// immediately. On failure the transport is constructed in the error
  /// state (connected() == false) and every request returns nullopt.
  SocketTransport(const std::string& endpoint_spec, sb::SimClock& clock);

  [[nodiscard]] bool connected() const noexcept { return fd_.valid(); }
  /// Human-readable description of the first failure, empty if none.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  /// Refuses every request once the connection is gone.
  bool refuse(const sb::RequestChannel& request) override;
  /// Writes `request_frame` under an envelope stamped with clock().now(),
  /// reads exactly one response envelope back. nullptr (and a dead
  /// connection) on any IO or framing error.
  sb::ResponseFrame exchange(
      const std::vector<std::uint8_t>& request_frame) override;
  void fail(const std::string& what);

  Fd fd_;
  std::string error_;
};

}  // namespace sbp::net
