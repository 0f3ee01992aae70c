// The Safe Browsing v3 client (paper Figure 3's flow chart).
//
// A lookup canonicalizes the URL, computes its decompositions, hashes each
// to a 32-bit prefix and tests them against the local per-list stores. On
// zero hits the URL is safe and *nothing* leaves the machine. On >= 1 hit
// the client asks the server for the full digests of the hit prefixes
// (subject to the full-hash cache), attaching its SB cookie -- this is the
// privacy-critical transmission the paper analyzes. The verdict is
// malicious only if a returned full digest equals the full digest of one of
// the URL's decompositions. (The flow itself lives in
// sb::PrefixProtocolClient -- v4 shares it; this class contributes the v3
// local database: shavar chunks rebuilt into prefix stores by sb::apply_v3,
// through the population's sb::SyncStateCache when it has one, so clients
// in one state share them.)
//
// The local store backend is configurable (raw / delta-coded / Bloom,
// Section 2.2.2); with Bloom, local hits can be intrinsic false positives,
// which turn into extra full-hash traffic but never wrong verdicts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/digest.hpp"
#include "sb/protocol.hpp"
#include "storage/prefix_store.hpp"

namespace sbp::sb {

class Client : public PrefixProtocolClient {
 public:
  Client(Transport& transport, ClientConfig config);

  [[nodiscard]] ProtocolVersion version() const noexcept override {
    return ProtocolVersion::kV3Chunked;
  }

  /// Subscribes to a server list; call update() to populate it.
  void subscribe(std::string_view list_name) override;

  /// Syncs all subscribed lists via the chunked update protocol and rebuilds
  /// the local stores. Clears the full-hash cache (paper Section 2.2.1:
  /// cached digests are kept "until an update discards them").
  /// Returns false when the update was withheld by backoff or failed at the
  /// network level (backoff state advances accordingly).
  bool update() override;

  [[nodiscard]] std::uint64_t update_wait(
      std::uint64_t now) const noexcept override {
    return update_backoff_.wait_time(now);
  }

  /// Batch membership across all subscribed lists' stores (OR of each
  /// store's sorted-probe answer).
  void local_contains_many(std::span<const crypto::Prefix32> prefixes,
                           std::span<bool> out) const override;

  [[nodiscard]] std::size_t local_prefix_count() const noexcept override;
  [[nodiscard]] std::size_t local_store_bytes() const noexcept override;

  /// The shared state synced for `list_name` (null = none yet) -- exposed
  /// for tests that check which clients share one state.
  [[nodiscard]] V3State synced_state(std::string_view list_name) const;

 private:
  struct ListState {
    std::string name;
    /// Applied chunks + built store, immutable and possibly shared with
    /// every other client in the same state; null until a sync ships
    /// chunks for this list.
    V3State synced;
  };

  std::vector<ListState> lists_;
  BackoffState update_backoff_;
};

/// The v3 generation under its protocol-family name.
using V3ChunkedProtocol = Client;

}  // namespace sbp::sb
