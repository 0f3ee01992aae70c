// The Safe Browsing v3 client (paper Figure 3's flow chart).
//
// A lookup canonicalizes the URL, computes its decompositions, hashes each
// to a 32-bit prefix and tests them against the local per-list stores. On
// zero hits the URL is safe and *nothing* leaves the machine. On >= 1 hit
// the client asks the server for the full digests of the hit prefixes
// (subject to the full-hash cache), attaching its SB cookie -- this is the
// privacy-critical transmission the paper analyzes. The verdict is
// malicious only if a returned full digest equals the full digest of one of
// the URL's decompositions. (The flow and the update loop live in
// sb::PrefixProtocolClient, which v4 shares; V3Sync contributes the v3
// synchronization: the request advertises the applied chunk numbers, the
// server's next_update_after sets the gap, and shavar chunks are rebuilt
// into prefix stores by sb::apply_v3, through the population's
// sb::SyncStateCache when it has one, so clients in one state share them.)
//
// The local store backend is configurable (raw / delta-coded / Bloom,
// Section 2.2.2); with Bloom, local hits can be intrinsic false positives,
// which turn into extra full-hash traffic but never wrong verdicts.
#pragma once

#include "sb/protocol.hpp"
#include "storage/prefix_store.hpp"

namespace sbp::sb {

/// The v3 chunked synchronization (see PrefixProtocolClient).
struct V3Sync {
  static constexpr ProtocolVersion kVersion = ProtocolVersion::kV3Chunked;
  using State = V3State;
  using Request = UpdateRequest;
  using Response = UpdateResponse;

  static SharedUpdate fetch(Transport& transport, const Request& request) {
    return transport.fetch_update_shared(request);
  }
  static void fill(Request::ListState& out, const SyncedList<State>& list);
  static std::uint64_t wait(const Response& response) {
    return response.next_update_after;
  }
  static bool apply(SyncedList<State>& list, const SharedUpdate& response,
                    const Response::ListUpdate& update,
                    const ClientConfig& config);
  static const storage::PrefixStore* store(const State& state) {
    return state ? state->store.get() : nullptr;
  }
};

extern template class PrefixProtocolClient<V3Sync>;

class Client final : public PrefixProtocolClient<V3Sync> {
 public:
  using PrefixProtocolClient::PrefixProtocolClient;
};

}  // namespace sbp::sb
