// The deprecated Lookup API (Safe Browsing v1), as a ProtocolClient.
//
// "Using this API, a client could send the URL to check using HTTP GET or
// POST requests ... the API was soon declared deprecated for privacy and
// efficiency considerations. This was mainly because URLs were sent in
// clear to the servers and each request implied latency due to the network
// round-trip." (paper Section 2.2)
//
// Implemented as the privacy baseline: every lookup serializes the clear
// URL into a V1LookupRequest frame and ships it; the server logs
// (tick, cookie, url, decomposition prefixes) through the same streaming
// QueryLogSink path as v3/v4 -- there is no client-side log to grow without
// bound, so v1 baseline populations scale like the others. Examples and
// benches contrast the server's view under v1 (full URLs) with v3/v4
// (32-bit prefixes, and only on local hits).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>

#include "sb/protocol.hpp"

namespace sbp::sb {

class V1LookupProtocol : public ProtocolClient {
 public:
  V1LookupProtocol(Transport& transport, ClientConfig config)
      : ProtocolClient(transport, config) {}

  [[nodiscard]] ProtocolVersion version() const noexcept override {
    return ProtocolVersion::kV1Lookup;
  }

  /// v1 holds no local state; subscriptions live server-side.
  void subscribe(std::string_view) override {}

  /// Nothing to sync; counted so population update accounting stays
  /// uniform across generations.
  bool update() override {
    ++metrics_.updates_attempted;
    return true;
  }

  /// No update channel, no wait: always permitted (and always a no-op).
  [[nodiscard]] std::uint64_t update_wait(
      std::uint64_t) const noexcept override {
    return 0;
  }

  /// Ships the ORIGINAL URL bytes (request.url(), pre-canonicalization,
  /// like the real Lookup API); the server checks every decomposition's
  /// full digest directly. Fails open on a network error, like v3/v4.
  using ProtocolClient::lookup;  // keep the string convenience visible
  [[nodiscard]] LookupResult lookup(const LookupRequest& request) override;

  /// No local database: every URL is a wire candidate.
  void local_contains_many(std::span<const crypto::Prefix32> prefixes,
                           std::span<bool> out) const override {
    std::fill(out.begin(), out.begin() + prefixes.size(), true);
  }
  [[nodiscard]] std::size_t local_prefix_count() const noexcept override {
    return 0;
  }
  [[nodiscard]] std::size_t local_store_bytes() const noexcept override {
    return 0;
  }
};

}  // namespace sbp::sb
