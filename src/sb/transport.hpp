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
// Two implementations share the abstract interface:
//   * InProcessTransport (this file) -- the deterministic golden path: the
//     frame round-trips through encode/decode in one address space and the
//     server is called directly. It advances a simulated tick clock to
//     model network latency (the Lookup API was deprecated partly for its
//     per-request round-trip, Section 2.2) and offers a wire tap so
//     experiments can observe traffic like a network-level eavesdropper.
//   * net::SocketTransport (src/net/socket_transport.hpp) -- the same
//     frames over a real TCP/Unix socket to a running sbserved daemon.
//
// ProtocolClient and every mitigation talk to the abstract Transport only,
// so they work unchanged over either.
//
// One Transport serves all three protocol generations: v1 clear-URL
// lookups, v3 chunked updates, v4 sliced updates, and the v3/v4-shared
// full-hash exchange.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "obs/phase.hpp"
#include "sb/server.hpp"
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

  /// Convenience for tests/benches that never inject failures.
  [[nodiscard]] FullHashResponse get_full_hashes(
      const std::vector<crypto::Prefix32>& prefixes, Cookie cookie) {
    auto response = get_full_hashes_or_error(prefixes, cookie);
    return response ? std::move(*response) : FullHashResponse{};
  }
  [[nodiscard]] UpdateResponse fetch_update(const UpdateRequest& request) {
    auto response = fetch_update_or_error(request);
    return response ? std::move(*response) : UpdateResponse{};
  }

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

/// The in-process reference transport: frames round-trip through the wire
/// codecs in one address space and sb::Server is called directly. This is
/// the deterministic golden path every networked run is compared against.
class InProcessTransport final : public Transport {
 public:
  /// Latencies are in clock ticks per round trip. With
  /// `round_trip_ticks == 0` the transport never writes the clock, so many
  /// zero-latency transports (one per engine shard) can share one SimClock
  /// from concurrent threads -- they only read it.
  InProcessTransport(Server& server, SimClock& clock,
                     std::uint64_t round_trip_ticks = 50)
      : Transport(clock), server_(server), round_trip_(round_trip_ticks) {}

  [[nodiscard]] std::optional<FullHashResponse> get_full_hashes_or_error(
      const std::vector<crypto::Prefix32>& prefixes, Cookie cookie) override;
  [[nodiscard]] std::optional<UpdateResponse> fetch_update_or_error(
      const UpdateRequest& request) override;
  [[nodiscard]] std::optional<V4UpdateResponse> fetch_v4_update_or_error(
      const V4UpdateRequest& request) override;
  [[nodiscard]] std::optional<bool> lookup_v1_or_error(std::string_view url,
                                                       Cookie cookie) override;

  /// Failure injection: the next `n` requests of each kind fail at the
  /// network level. Used to exercise the client's backoff (Section 2.2.1's
  /// request-frequency discipline).
  void inject_full_hash_failures(unsigned n) { fail_full_hashes_ = n; }
  void inject_update_failures(unsigned n) { fail_updates_ = n; }
  void inject_v1_failures(unsigned n) { fail_v1_ = n; }

  [[nodiscard]] Server& server() noexcept { return server_; }

  /// Wire tap invoked with every full-hash request (prefix list + cookie)
  /// as decoded from the frame, before the server processes it.
  using FullHashTap =
      std::function<void(Cookie, const std::vector<crypto::Prefix32>&)>;
  void set_full_hash_tap(FullHashTap tap) { tap_ = std::move(tap); }

 private:
  Server& server_;
  std::uint64_t round_trip_;
  FullHashTap tap_;
  unsigned fail_full_hashes_ = 0;
  unsigned fail_updates_ = 0;
  unsigned fail_v1_ = 0;
};

}  // namespace sbp::sb
