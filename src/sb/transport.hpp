// Client<->server transport interface and the in-process reference
// implementation.
//
// Substitution note (DESIGN.md): the paper's clients speak HTTPS to Google
// and Yandex; every privacy result depends only on what reaches the server
// -- prefixes (or, for v1, the URL), the SB cookie and timing. Every
// Transport carries exactly those as SERIALIZED WIRE FRAMES
// (sb/wire/frames.hpp): each request/response is byte-encoded, counted,
// decoded on the far side and only then processed, so TransportStats
// bytes_up/bytes_down are true wire sizes and nothing that is not in a
// frame can cross the boundary.
//
// FrameTransport writes the client half of that discipline once: encode
// the request frame, bill it, exchange it, bill and decode the response,
// record obs. Its two implementations supply only what differs -- the
// pre-send refusal and the byte exchange:
//   * InProcessTransport (this file) -- the deterministic golden path: the
//     frame is handed to Server::serve_frame in one address space. It
//     advances a simulated tick clock to model network latency (the Lookup
//     API was deprecated partly for its per-request round-trip, Section
//     2.2) and injects failures on request.
//   * net::SocketTransport (src/net/socket_transport.hpp) -- the same
//     frames over a real TCP/Unix socket to a running sbserved daemon,
//     which serves them through the same Server::serve_frame.
//
// ProtocolClient and every mitigation talk to the abstract Transport only,
// so they work unchanged over either.
//
// One Transport serves all three protocol generations: v1 clear-URL
// lookups, v3 chunked updates, v4 sliced updates, and the v3/v4-shared
// full-hash exchange.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "obs/phase.hpp"
#include "sb/server.hpp"
#include "sb/wire/frames.hpp"
#include "util/counters.hpp"

namespace sbp::sb {

/// Deterministic simulation clock (1 tick ~ 1 ms at the default latencies).
class SimClock {
 public:
  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }
  void advance(std::uint64_t ticks) noexcept { now_ += ticks; }

 private:
  std::uint64_t now_ = 0;
};

/// Byte/request counters per endpoint. Byte counts are the exact encoded
/// frame sizes -- the bandwidth the provider would bill. The parallel
/// engine keeps one Transport (and thus one of these) per shard and
/// reduces them with operator+= after the tick barrier.
struct TransportStats {
  std::uint64_t full_hash_requests = 0;
  std::uint64_t update_requests = 0;     ///< v3 chunked updates
  std::uint64_t v4_update_requests = 0;  ///< v4 sliced updates
  std::uint64_t v1_requests = 0;         ///< v1 clear-URL lookups
  std::uint64_t failed_requests = 0;     ///< injected/transport failures
  std::uint64_t bytes_up = 0;    ///< client -> server (encoded frames)
  std::uint64_t bytes_down = 0;  ///< server -> client (encoded frames)
  /// Update-channel share of bytes_up/down (v3 chunked + v4 sliced update
  /// frames) -- the re-sync bandwidth live churn forces on the fleet,
  /// separated from the full-hash/lookup traffic so benches can report
  /// bytes-per-resync exactly (bench_update_churn).
  std::uint64_t update_bytes_up = 0;
  std::uint64_t update_bytes_down = 0;

  static constexpr util::CounterField<TransportStats> kCounters[] = {
      {"full_hash_requests", &TransportStats::full_hash_requests},
      {"update_requests", &TransportStats::update_requests},
      {"v4_update_requests", &TransportStats::v4_update_requests},
      {"v1_requests", &TransportStats::v1_requests},
      {"failed_requests", &TransportStats::failed_requests},
      {"bytes_up", &TransportStats::bytes_up},
      {"bytes_down", &TransportStats::bytes_down},
      {"update_bytes_up", &TransportStats::update_bytes_up},
      {"update_bytes_down", &TransportStats::update_bytes_down},
  };

  TransportStats& operator+=(const TransportStats& other) noexcept {
    return util::add_counters(*this, other);
  }
};

/// What one request frame is billed to: its obs channel, its request
/// counter, and whether its bytes also count as update-channel bytes. The
/// client transports and the daemon's wire totals both bill through it, so
/// the two sides of a connection count identically.
struct RequestChannel {
  wire::FrameType tag;
  obs::Channel channel;
  std::uint64_t TransportStats::*requests;
  bool update;

  /// Bills one sent request frame: its counter and bytes_up.
  void count_request(TransportStats& stats,
                     std::size_t bytes) const noexcept {
    ++(stats.*requests);
    stats.bytes_up += bytes;
    if (update) stats.update_bytes_up += bytes;
  }
  /// Bills the response frame it got.
  void count_response(TransportStats& stats,
                      std::size_t bytes) const noexcept {
    stats.bytes_down += bytes;
    if (update) stats.update_bytes_down += bytes;
  }
};

/// The channel of a request frame's tag byte; nullptr for response tags
/// and unknown bytes.
[[nodiscard]] const RequestChannel* request_channel(std::uint8_t tag) noexcept;

/// Abstract transport: the four wire endpoints plus the shared clock,
/// byte accounting and per-channel observability. Implementations return
/// nullopt for any request that fails at the transport level (injected
/// failure, socket error, frame corruption) -- the client's backoff then
/// reacts exactly as it would to a real network error.
class Transport {
 public:
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Full-hash endpoint (v3 + v4). Returns nullopt on a transport-level
  /// failure (the request never reaches the server and nothing is logged).
  [[nodiscard]] virtual std::optional<FullHashResponse>
  get_full_hashes_or_error(const std::vector<crypto::Prefix32>& prefixes,
                           Cookie cookie) = 0;

  /// v3 chunked-update endpoint.
  [[nodiscard]] virtual std::optional<UpdateResponse> fetch_update_or_error(
      const UpdateRequest& request) = 0;

  /// v4 sliced-update endpoint.
  [[nodiscard]] virtual std::optional<V4UpdateResponse>
  fetch_v4_update_or_error(const V4UpdateRequest& request) = 0;

  /// v1 Lookup endpoint: the URL crosses in clear. Returns the malicious
  /// verdict; nullopt on a transport-level failure.
  [[nodiscard]] virtual std::optional<bool> lookup_v1_or_error(
      std::string_view url, Cookie cookie) = 0;

  /// The shared update path, which sb::Client and sb::V4SlicedProtocol
  /// update through: the decoded response by pointer, with the frame it
  /// was decoded from (see SharedResponse); a null value on a
  /// transport-level failure. The default wraps the by-value endpoint
  /// above (a value of its own, no frame); FrameTransport hands out its
  /// decode memo, shared by every client given the same frame.
  [[nodiscard]] virtual SharedUpdate fetch_update_shared(
      const UpdateRequest& request);
  [[nodiscard]] virtual SharedV4Update fetch_v4_update_shared(
      const V4UpdateRequest& request);

  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }

  /// Attaches per-channel observability (latency + exact frame-size
  /// histograms; see obs::ChannelStats). Null detaches; with it detached
  /// the endpoints read no wall clock and the request path is unchanged.
  /// Successful serves only -- failures and decode errors keep being
  /// counted by stats_ alone. The engine attaches each shard's transport
  /// to that shard's TransportObs, so recording never crosses threads.
  void set_obs(obs::TransportObs* obs) noexcept { obs_ = obs; }

 protected:
  explicit Transport(SimClock& clock) : clock_(clock) {}

  /// Records one successful request on `channel` when obs is attached.
  void record_obs(obs::Channel channel, std::uint64_t bytes_up,
                  std::uint64_t bytes_down, std::uint64_t start_ns) noexcept {
    if (obs_ == nullptr) return;
    obs_->channel(channel).record(bytes_up, bytes_down,
                                  obs::now_ns() - start_ns);
  }

  SimClock& clock_;
  TransportStats stats_;
  obs::TransportObs* obs_ = nullptr;
};

/// The client half of every frame exchange, written once. Each endpoint
/// asks refuse() first; a refused request counts only failed_requests.
/// Otherwise it encodes the request frame, bills it (request counter,
/// bytes_up), hands it to exchange(), bills and decodes the response frame
/// and records obs. A failed exchange or an undecodable response counts
/// failed_requests and returns nullopt.
///
/// The decode memo: each update channel (v3 chunked, v4 sliced) remembers
/// the last response frame it decoded and the decoded value, as a
/// SharedResponse. Clients in the same list state get the same update
/// bytes (the server hands out one cached frame), so a response that is
/// the same frame -- the same buffer, or equal bytes -- is answered from
/// the memo instead of being decoded again: the shared path hands out the
/// memo itself (the decoded value and the frame it was decoded from, so
/// equal bytes in another buffer still name one frame), the by-value
/// endpoints a copy of its value. Decoding is a pure function of the
/// bytes, so nothing observable changes: billing, obs and failures are
/// exactly those of a fresh decode, and an undecodable frame is never
/// remembered. The memo, like the request frame buffer every endpoint
/// encodes into, belongs to this transport alone (one per engine shard),
/// so it takes no lock.
class FrameTransport : public Transport {
 public:
  [[nodiscard]] std::optional<FullHashResponse> get_full_hashes_or_error(
      const std::vector<crypto::Prefix32>& prefixes, Cookie cookie) final;
  [[nodiscard]] std::optional<UpdateResponse> fetch_update_or_error(
      const UpdateRequest& request) final;
  [[nodiscard]] std::optional<V4UpdateResponse> fetch_v4_update_or_error(
      const V4UpdateRequest& request) final;
  [[nodiscard]] std::optional<bool> lookup_v1_or_error(std::string_view url,
                                                       Cookie cookie) final;
  [[nodiscard]] SharedUpdate fetch_update_shared(
      const UpdateRequest& request) final;
  [[nodiscard]] SharedV4Update fetch_v4_update_shared(
      const V4UpdateRequest& request) final;

  /// Update responses answered from the decode memo instead of decoded
  /// (exported as the `update_decode_reuses` counter).
  [[nodiscard]] std::uint64_t update_decode_reuses() const noexcept {
    return update_decode_reuses_;
  }

 protected:
  using Transport::Transport;

  /// Called before every request, before anything is encoded or counted.
  /// True refuses it: the request never reaches the server.
  [[nodiscard]] virtual bool refuse(const RequestChannel& request) = 0;

  /// Carries one request frame to the server; returns its response frame,
  /// or nullptr when the exchange failed.
  [[nodiscard]] virtual ResponseFrame exchange(
      const std::vector<std::uint8_t>& request_frame) = 0;

 private:
  template <typename Request>
  using Encode = void (*)(const Request&, std::vector<std::uint8_t>&);
  template <typename Response>
  using Decode = std::optional<Response> (*)(std::span<const std::uint8_t>);

  /// Refuses, or encodes, bills and exchanges one request frame: the
  /// billed response frame, or null (counted in failed_requests).
  /// `start_ns` is the obs start time.
  template <typename Request>
  [[nodiscard]] ResponseFrame round_trip(const RequestChannel& channel,
                                         const Request& request,
                                         Encode<Request> encode,
                                         std::uint64_t& start_ns);

  /// One full-hash or v1 exchange, decoded.
  template <typename Request, typename Response>
  [[nodiscard]] std::optional<Response> send(wire::FrameType tag,
                                             const Request& request,
                                             Encode<Request> encode,
                                             Decode<Response> decode);

  /// One update exchange, answered from `memo` when the response repeats
  /// the frame it remembers.
  template <typename Request, typename Response>
  [[nodiscard]] SharedResponse<Response> send_update(
      wire::FrameType tag, const Request& request, Encode<Request> encode,
      Decode<Response> decode, SharedResponse<Response>& memo);

  std::vector<std::uint8_t> request_frame_;  ///< reused by every request
  SharedUpdate v3_memo_;
  SharedV4Update v4_memo_;
  std::uint64_t update_decode_reuses_ = 0;
};

/// The in-process reference transport: each request frame is served by
/// Server::serve_frame in this address space, and the response frame is
/// decoded from the server's own bytes (a cached update encoding is never
/// copied). This is the deterministic golden path every networked run is
/// compared against.
class InProcessTransport final : public FrameTransport {
 public:
  /// Latencies are in clock ticks per round trip. With
  /// `round_trip_ticks == 0` the transport never writes the clock, so many
  /// zero-latency transports (one per engine shard) can share one SimClock
  /// from concurrent threads -- they only read it.
  InProcessTransport(Server& server, SimClock& clock,
                     std::uint64_t round_trip_ticks = 50)
      : FrameTransport(clock), server_(server), round_trip_(round_trip_ticks) {}

  /// Failure injection: the next `n` requests of each kind fail at the
  /// network level (v3 and v4 updates share one budget). Used to exercise
  /// the client's backoff (Section 2.2.1's request-frequency discipline).
  void inject_full_hash_failures(unsigned n) { fail_full_hashes_ = n; }
  void inject_update_failures(unsigned n) { fail_updates_ = n; }
  void inject_v1_failures(unsigned n) { fail_v1_ = n; }

  [[nodiscard]] Server& server() noexcept { return server_; }

 private:
  /// Charges the round trip (a failed request costs one too), then spends
  /// one injected failure of the request's kind if any is left.
  bool refuse(const RequestChannel& request) override;
  ResponseFrame exchange(
      const std::vector<std::uint8_t>& request_frame) override;

  Server& server_;
  std::uint64_t round_trip_;
  unsigned fail_full_hashes_ = 0;
  unsigned fail_updates_ = 0;
  unsigned fail_v1_ = 0;
};

}  // namespace sbp::sb
