// The v4-style sliced-update client (post-paper Update API).
//
// Google replaced the v3 chunked protocol with the Update API ("v4") after
// the paper's study window. The privacy-relevant differences modeled here:
//
//   * updates are stateless diffs ("slices") against an opaque per-list
//     state token instead of chunk-number inventories -- removals arrive
//     as indices into the client's sorted prefix array, additions as
//     Rice-compressed raw 32-bit hash prefixes (sb/wire/rice.hpp), cutting
//     update bandwidth well below v3's 4-bytes-per-prefix chunks;
//   * the server dictates a minimum wait between updates
//     (minimum_wait_duration), which the client must honor;
//   * a checksum over the post-update set detects desync, forcing a full
//     resync -- the client never limps along on a corrupt database;
//   * the full-hash exchange (and hence the query log the provider
//     observes: 32-bit prefixes + cookie + timing) is UNCHANGED from v3 --
//     which is why the paper's re-identification and tracking analyses
//     carry over to v4 unmodified (tests/sb/protocol_equivalence_test).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sb/protocol.hpp"
#include "storage/raw_hash_store.hpp"

namespace sbp::sb {

class V4SlicedProtocol : public PrefixProtocolClient {
 public:
  V4SlicedProtocol(Transport& transport, ClientConfig config);

  [[nodiscard]] ProtocolVersion version() const noexcept override {
    return ProtocolVersion::kV4Sliced;
  }

  void subscribe(std::string_view list_name) override;

  /// Fetches and applies one slice per out-of-date list. Returns false when
  /// withheld (backoff / server minimum wait), failed on the wire, or a
  /// checksum mismatch forced a local reset (the next update full-syncs).
  bool update() override;

  [[nodiscard]] std::uint64_t update_wait(
      std::uint64_t now) const noexcept override {
    return update_backoff_.wait_time(now);
  }

  /// Batch membership across the per-list raw-hash stores (sorted-probe
  /// advancing binary search).
  void local_contains_many(std::span<const crypto::Prefix32> prefixes,
                           std::span<bool> out) const override;
  [[nodiscard]] std::size_t local_prefix_count() const noexcept override;
  [[nodiscard]] std::size_t local_store_bytes() const noexcept override;

  /// State token currently synced for `list_name` (0 = never synced /
  /// reset after desync) -- exposed for tests.
  [[nodiscard]] std::uint64_t list_state(std::string_view list_name) const;

  /// FNV checksum of the local sorted prefix set for `list_name` -- equals
  /// `storage::RawHashStore::checksum_of(server effective set)` exactly
  /// when the client has converged on the server's current state (the
  /// churn-convergence check of tests/sim/engine_churn_test.cpp).
  [[nodiscard]] std::uint32_t list_checksum(std::string_view list_name) const;

  /// The shared store synced for `list_name` (null = empty) -- exposed for
  /// tests that check which clients share one state.
  [[nodiscard]] V4State synced_state(std::string_view list_name) const;

 private:
  struct ListState {
    std::string name;
    std::uint64_t state = 0;
    /// Sorted prefix array + its checksum, immutable and possibly shared
    /// with every other client in the same state; null = empty.
    V4State store;
  };

  std::vector<ListState> lists_;
  BackoffState update_backoff_;
};

}  // namespace sbp::sb
