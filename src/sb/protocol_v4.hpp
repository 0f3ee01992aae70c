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
//
// The lookup flow and the update loop are sb::PrefixProtocolClient's, shared
// with v3; V4Sync contributes the sync itself: the state-token request, the
// server's minimum_wait, and the slice applied by sb::apply_v4 (through the
// population's sb::SyncStateCache when it has one) plus the per-client
// checksum check.
#pragma once

#include <cstdint>
#include <string_view>

#include "sb/protocol.hpp"
#include "storage/raw_hash_store.hpp"

namespace sbp::sb {

/// The v4 sliced synchronization (see PrefixProtocolClient).
struct V4Sync {
  static constexpr ProtocolVersion kVersion = ProtocolVersion::kV4Sliced;
  using State = V4State;
  using Request = V4UpdateRequest;
  using Response = V4UpdateResponse;

  static SharedV4Update fetch(Transport& transport, const Request& request) {
    return transport.fetch_v4_update_shared(request);
  }
  static void fill(Request::ListState& out, const SyncedList<State>& list) {
    out.state = list.token;
  }
  static std::uint64_t wait(const Response& response) {
    return response.minimum_wait;
  }
  /// Applies `slice` and checks the result against its checksum. On a
  /// mismatch or a slice that does not apply, the list lets go of its
  /// state and token (the shared state itself is untouched), so the next
  /// update full-syncs it -- the Update API's recovery discipline.
  static bool apply(SyncedList<State>& list, const SharedV4Update& response,
                    const V4SliceUpdate& slice, const ClientConfig& config);
  static const storage::RawHashStore* store(const State& state) {
    return state.get();
  }
};

extern template class PrefixProtocolClient<V4Sync>;

class V4SlicedProtocol final : public PrefixProtocolClient<V4Sync> {
 public:
  using PrefixProtocolClient::PrefixProtocolClient;

  /// State token currently synced for `list_name` (0 = never synced /
  /// reset after desync) -- exposed for tests.
  [[nodiscard]] std::uint64_t list_state(std::string_view list_name) const;

  /// FNV checksum of the local sorted prefix set for `list_name` -- equals
  /// `storage::RawHashStore::checksum_of(server effective set)` exactly
  /// when the client has converged on the server's current state (the
  /// churn-convergence check of tests/sim/engine_churn_test.cpp).
  [[nodiscard]] std::uint32_t list_checksum(std::string_view list_name) const;
};

}  // namespace sbp::sb
