// The sbserved event loop: sb::Server behind poll(2) (src/net).
//
// A single-threaded reactor serving the byte-level wire protocol -- the
// four request frame types (full-hash, v3/v4 updates, v1 lookups) wrapped
// in the envelope framing of net/frame_codec.hpp -- over any mix of TCP and
// Unix listeners. Single-threaded is a feature, not a shortcut: every
// request on every connection is served in arrival order by one thread, so
// the server's query log is a deterministic function of the clients'
// request stream, and the update endpoints (which mutate via seal) need no
// locks. The daemon never looks inside a frame: each payload goes to
// Server::serve_frame, the same dispatch the in-process transport uses,
// and its encode-once update cache does the fan-out (N clients at the same
// state token share one encoding). The reply is written straight into the
// connection's output buffer behind its envelope header.
//
// Connection handling is fully non-blocking: per-connection FrameDecoder
// for partial reads, per-connection output buffer with POLLOUT-driven
// flushing for short writes. A connection that sends garbage (envelope
// oversize, or a payload serve_frame does not answer: unknown or response
// tag, empty or undecodable frame) is counted in
// stats().decode_errors and closed -- never crashes the daemon. EINTR at
// any syscall is retried (poll: treated as a timeout); callers are
// expected to have SIGPIPE ignored process-wide (net::ignore_sigpipe).
//
// The loop is owned by the caller: poll_once() steps it, so binaries can
// interleave signal-flag checks (sbserved) and tests/benches can run it
// from a plain std::thread without any signal machinery.
//
// Observability: always-on per-channel request/byte/latency histograms
// (obs::TransportObs -- the same structure sbsim exports) plus
// TransportStats wire totals and daemon counters. The wire totals bill
// through sb::request_channel, like the client transports, and count
// payload (frame) bytes only, envelope headers excluded, so daemon-side
// counters reconcile exactly with client-side TransportStats and with an
// in-process run (the equivalence contract).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/frame_codec.hpp"
#include "net/socket.hpp"
#include "obs/phase.hpp"
#include "obs/snapshot.hpp"
#include "sb/server.hpp"
#include "sb/transport.hpp"
#include "util/counters.hpp"

namespace sbp::net {

/// Daemon-level counters (wire totals live in transport_stats()).
struct DaemonStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_served = 0;
  std::uint64_t decode_errors = 0;  ///< broken envelopes/frames (conn dropped)

  static constexpr util::CounterField<DaemonStats> kCounters[] = {
      {"connections_accepted", &DaemonStats::connections_accepted},
      {"connections_closed", &DaemonStats::connections_closed},
      {"frames_served", &DaemonStats::frames_served},
      {"decode_errors", &DaemonStats::decode_errors},
  };
};

class Daemon {
 public:
  /// Serves `server`. The daemon does not own it; the caller keeps it
  /// alive (and pre-seeded -- the daemon never mutates lists except the
  /// seals the update endpoints have always done).
  explicit Daemon(sb::Server& server) : server_(server) {}

  /// Opens a listener on "tcp:HOST:PORT" or "unix:/PATH". May be called
  /// multiple times (sbserved listens on several at once). False + *error
  /// on failure. TCP port 0 binds an ephemeral port; the resolved
  /// endpoint appears in listen_endpoints().
  [[nodiscard]] bool listen(const std::string& endpoint, std::string* error);

  /// Canonical endpoint strings actually bound (ephemeral ports resolved)
  /// -- what clients connect to.
  [[nodiscard]] const std::vector<std::string>& listen_endpoints()
      const noexcept {
    return listen_endpoints_;
  }

  /// One reactor step: poll with `timeout_ms`, then serve every ready
  /// listener/connection. Returns the number of frames served this step
  /// (0 on a pure timeout).
  std::size_t poll_once(int timeout_ms);

  /// Graceful drain: closes the listeners, flushes every connection's
  /// pending output (bounded by `drain_ms` total), closes all
  /// connections. Call once before exiting.
  void shutdown(int drain_ms = 2000);

  [[nodiscard]] std::size_t open_connections() const noexcept {
    return connections_.size();
  }
  [[nodiscard]] const DaemonStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const sb::TransportStats& transport_stats() const noexcept {
    return wire_;
  }
  [[nodiscard]] const obs::TransportObs& transport_obs() const noexcept {
    return obs_;
  }

  /// A metrics.json-ready snapshot (schema_version 1, the exact structure
  /// `sbsim run --metrics-out` writes and tools/check_metrics.py gates):
  /// the daemon's channel histograms, its counters, one-worker pool shape,
  /// threads_used = 1. Phases stay zero -- the daemon has no tick loop.
  [[nodiscard]] obs::Snapshot snapshot() const;

 private:
  struct Connection {
    Fd fd;
    FrameDecoder decoder;
    std::vector<std::uint8_t> out;  ///< pending bytes [out_offset, end)
    std::size_t out_offset = 0;
    bool broken = false;
  };

  void accept_ready(std::size_t listener_index);
  /// Reads everything available; serves each complete envelope. Marks the
  /// connection broken on EOF/error/garbage.
  void read_ready(Connection& connection);
  /// Serves one request envelope through Server::serve_frame and appends
  /// the reply envelope to connection.out. False = no reply (caller drops
  /// the connection).
  [[nodiscard]] bool serve_envelope(Connection& connection,
                                    const Envelope& envelope);
  /// Flushes pending output as far as the socket allows.
  void flush(Connection& connection);
  void close_broken();

  sb::Server& server_;
  std::vector<Fd> listeners_;
  std::vector<std::string> listen_endpoints_;
  std::vector<std::unique_ptr<Connection>> connections_;
  DaemonStats stats_;
  sb::TransportStats wire_;
  obs::TransportObs obs_;
};

}  // namespace sbp::net
