// The provider-agnostic protocol-client API (paper Figure 3 generalized
// across protocol generations).
//
// A ProtocolClient is one browser profile's Safe Browsing stack: it syncs
// whatever local state its generation prescribes (nothing for v1, chunked
// prefix stores for v3, sliced raw-hash sets for v4) and answers the one
// question a browser asks -- "is this URL malicious?" -- deciding in the
// process what leaves the machine. Everything above this interface
// (simulation engine, mitigations, experiments) is generation-agnostic;
// everything below it speaks serialized wire frames through Transport.
//
// PrefixProtocolClient is the one prefix-based client, v3 and v4 alike: the
// Figure 3 lookup flow (local-store hit -> full-hash cache -> batched
// full-hash request with the SB cookie -> digest confirmation) and the
// synced-list update loop. The generations differ only in how a list's
// local store is synchronized, a small trait each supplies.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/digest.hpp"
#include "sb/backoff.hpp"
#include "sb/lookup_request.hpp"
#include "sb/protocol_version.hpp"
#include "sb/sync_state_cache.hpp"
#include "sb/transport.hpp"
#include "storage/full_hash_cache.hpp"
#include "storage/prefix_store.hpp"
#include "util/counters.hpp"

namespace sbp::sb {

enum class Verdict {
  kSafe,       ///< no local hit, or full digests did not confirm
  kMalicious,  ///< a full digest matched one of the decompositions
  kInvalid,    ///< URL could not be canonicalized
};

struct LookupResult {
  Verdict verdict = Verdict::kInvalid;
  std::string matched_list;        ///< set when malicious
  std::string matched_expression;  ///< decomposition that confirmed
  /// Prefixes transmitted to the server for this lookup (empty when the
  /// local database had no hit or the cache answered) -- exactly the
  /// information leak studied in Sections 5 and 6. For v1 this is empty:
  /// the leak is the URL itself.
  std::vector<crypto::Prefix32> sent_prefixes;
  /// All local-database hits (may exceed sent_prefixes when cached).
  std::vector<crypto::Prefix32> local_hits;
  bool answered_from_cache = false;
  /// The request failed at the network level, or was withheld by backoff:
  /// the client fails OPEN (verdict kSafe, unconfirmed), matching real SB
  /// clients -- availability over blocking.
  bool unconfirmed = false;
};

struct ClientConfig {
  /// Which protocol generation this client speaks (make_protocol_client
  /// dispatches on it).
  ProtocolVersion protocol = ProtocolVersion::kV3Chunked;
  storage::StoreKind store_kind = storage::StoreKind::kDeltaCoded;
  /// Bloom-store size in bits (kBloom only). 0 = Chromium's historical
  /// constant 3 MB (BloomFilter::kChromiumDefaultBits) -- faithful to
  /// Table 2, but far too large to instantiate once per simulated user,
  /// so population runs size it to their actual store cardinality.
  std::size_t bloom_bits = 0;
  /// TTL of cached full-hash responses in clock ticks (0 = keep until the
  /// next update clears them).
  std::uint64_t full_hash_ttl = 0;
  /// The SB cookie sent with every full-hash request (Section 2.2.3).
  Cookie cookie = 0;
  /// Request-frequency policy. The default imposes no gap between
  /// successful requests (so tests/benches can drive updates freely) but
  /// still backs off exponentially on errors.
  BackoffConfig backoff{.base_delay = 60,
                        .max_delay = 28800,
                        .min_update_gap = 0};
  /// Where v3/v4 clients get their immutable synced list states (see
  /// sb/sync_state_cache.hpp). A population passes one shared cache so
  /// clients in the same state share one apply+rebuild and one store, and
  /// prunes it itself; null = no memo: the client applies every update
  /// itself (sb::apply_v3 / sb::apply_v4).
  std::shared_ptr<SyncStateCache> sync_states;
};

struct ClientMetrics {
  std::uint64_t lookups = 0;
  std::uint64_t local_hits = 0;            ///< lookups with >= 1 store hit
  std::uint64_t multi_prefix_lookups = 0;  ///< lookups sending >= 2 prefixes
  std::uint64_t full_hash_requests = 0;
  std::uint64_t cache_answers = 0;
  std::uint64_t malicious_verdicts = 0;
  std::uint64_t network_errors = 0;      ///< failed wire requests
  std::uint64_t backoff_suppressed = 0;  ///< requests withheld by backoff
  std::uint64_t updates_attempted = 0;
  std::uint64_t updates_failed = 0;

  static constexpr util::CounterField<ClientMetrics> kCounters[] = {
      {"lookups", &ClientMetrics::lookups},
      {"local_hits", &ClientMetrics::local_hits},
      {"multi_prefix_lookups", &ClientMetrics::multi_prefix_lookups},
      {"full_hash_requests", &ClientMetrics::full_hash_requests},
      {"cache_answers", &ClientMetrics::cache_answers},
      {"malicious_verdicts", &ClientMetrics::malicious_verdicts},
      {"network_errors", &ClientMetrics::network_errors},
      {"backoff_suppressed", &ClientMetrics::backoff_suppressed},
      {"updates_attempted", &ClientMetrics::updates_attempted},
      {"updates_failed", &ClientMetrics::updates_failed},
  };

  ClientMetrics& operator+=(const ClientMetrics& other) noexcept {
    return util::add_counters(*this, other);
  }
};

/// One browser profile's Safe Browsing client, any generation.
class ProtocolClient {
 public:
  virtual ~ProtocolClient() = default;

  [[nodiscard]] virtual ProtocolVersion version() const noexcept = 0;

  /// Subscribes to a server list; call update() to populate local state.
  virtual void subscribe(std::string_view list_name) = 0;

  /// Syncs local state with the server (a no-op for v1, which holds none).
  /// Returns false when withheld by backoff or failed on the wire.
  virtual bool update() = 0;

  /// Ticks until the update channel permits the next update(): the
  /// client's own minimum-wait timer (server-dictated v3
  /// `next_update_after` / v4 `minimum_wait`, plus error backoff). 0 =
  /// allowed now; always 0 for v1, which has nothing to sync. The engine's
  /// churn re-sync scheduler polls this instead of blindly calling
  /// update(), so suppressed attempts never hit the wire or the metrics.
  [[nodiscard]] virtual std::uint64_t update_wait(
      std::uint64_t now) const noexcept = 0;

  /// "Is this URL malicious?" -- the Figure 3 flow for the generation,
  /// over a pre-built request (URL decomposed and hashed once; see
  /// sb/lookup_request.hpp). THE lookup entry point: v1/v3/v4 all
  /// implement this one shape, and batch callers (the simulation engine)
  /// pass their cached request straight through.
  [[nodiscard]] virtual LookupResult lookup(const LookupRequest& request) = 0;

  /// String convenience: builds a scratch request (reused across calls)
  /// and runs the same flow. Identical results to lookup(request).
  [[nodiscard]] LookupResult lookup(std::string_view url) {
    scratch_request_.build(url);
    return lookup(scratch_request_);
  }

  /// Batch local-database membership (no network): out[i] = whether
  /// prefixes[i] is in any subscribed list's local store. `out` must hold
  /// prefixes.size() elements. THE client membership implementation; the
  /// engine prefilter and the prefix lookup flow call it once per URL.
  /// v1 has no local database and answers true: every URL is a candidate
  /// that goes to the wire.
  virtual void local_contains_many(std::span<const crypto::Prefix32> prefixes,
                                   std::span<bool> out) const = 0;

  /// A batch of one local_contains_many, for cold paths and tests.
  [[nodiscard]] bool local_contains(crypto::Prefix32 prefix) const {
    bool hit = false;
    local_contains_many(std::span<const crypto::Prefix32>(&prefix, 1),
                        std::span<bool>(&hit, 1));
    return hit;
  }

  [[nodiscard]] virtual std::size_t local_prefix_count() const noexcept = 0;
  [[nodiscard]] virtual std::size_t local_store_bytes() const noexcept = 0;

  [[nodiscard]] const ClientMetrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] Cookie cookie() const noexcept { return config_.cookie; }

 protected:
  ProtocolClient(Transport& transport, ClientConfig config)
      : transport_(transport), config_(config) {}

  Transport& transport_;
  ClientConfig config_;
  ClientMetrics metrics_;

 private:
  /// Backs the string-convenience lookup; buffers reused across calls.
  LookupRequest scratch_request_;
};

/// One subscribed list of a prefix client (v3 and v4).
template <typename State>
struct SyncedList {
  std::string name;
  /// The synced list, immutable and possibly shared with every other
  /// client in the same state (sb/sync_state_cache.hpp); null until a sync
  /// ships this list, and after a v4 desync.
  State synced;
  /// The v4 state token the next request presents (0 = never synced or
  /// reset after a desync, which the server answers with a full slice).
  /// v3 presents its applied chunk numbers instead and leaves this 0.
  std::uint64_t token = 0;
};

/// A prefix-based client (v3 and v4): Figure 3's lookup flow over one
/// local store per subscribed list, which update() keeps in step with the
/// server. A lookup makes one batched local-store test over the request's
/// decomposition prefixes, then resolves hits via the full-hash cache or
/// one batched full-hash request and confirms them against full digests.
/// The generations differ only in how a list is synchronized, which
/// `Sync` supplies (sb::V3Sync in sb/client.hpp, sb::V4Sync in
/// sb/protocol_v4.hpp):
///
///   State, Request, Response, kVersion   the synced list, the update
///       frames' decoded types, the generation spoken
///   fetch(transport, request)   the shared update path
///   fill(request_list, list)    one list's state in the next request
///   wait(response)              the server-set gap before the next update
///   apply(list, response, update, config)   one list's update, from
///       `config.sync_states` when set, else sb::apply_v3 / sb::apply_v4;
///       false = the list desynchronized and was reset
///   store(state)                the state's prefix store, or null
///
/// The members are defined in protocol.cpp and instantiated there for
/// both generations.
template <typename Sync>
class PrefixProtocolClient : public ProtocolClient {
 public:
  using State = typename Sync::State;

  PrefixProtocolClient(Transport& transport, ClientConfig config);

  [[nodiscard]] ProtocolVersion version() const noexcept final {
    return Sync::kVersion;
  }

  void subscribe(std::string_view list_name) final;

  /// Syncs every subscribed list and clears the full-hash cache (paper
  /// Section 2.2.1: cached digests are kept "until an update discards
  /// them"). Returns false when withheld by backoff or the server's wait
  /// (the backoff state advances accordingly), failed on the wire, or a
  /// list desynchronized (counted in updates_failed; the next update
  /// full-syncs it).
  bool update() final;

  [[nodiscard]] std::uint64_t update_wait(
      std::uint64_t now) const noexcept final {
    return update_backoff_.wait_time(now);
  }

  using ProtocolClient::lookup;  // keep the string convenience visible
  [[nodiscard]] LookupResult lookup(const LookupRequest& request) final;

  /// ORs every list store's contains_many32 answer into `out`, 64 queries
  /// at a time (stack scratch; longer batches are split, preserving
  /// order).
  void local_contains_many(std::span<const crypto::Prefix32> prefixes,
                           std::span<bool> out) const final;

  [[nodiscard]] std::size_t local_prefix_count() const noexcept final;
  [[nodiscard]] std::size_t local_store_bytes() const noexcept final;

  /// The state synced for `list_name` (null = none yet) -- exposed for
  /// tests that check which clients share one state.
  [[nodiscard]] State synced_state(std::string_view list_name) const;

 protected:
  /// The subscribed list named `list_name`, or null.
  [[nodiscard]] const SyncedList<State>* find_list(
      std::string_view list_name) const;

 private:
  std::vector<SyncedList<State>> lists_;
  storage::FullHashCache cache_;
  BackoffState full_hash_backoff_;
  BackoffState update_backoff_;
};

/// Instantiates the implementation for `config.protocol`.
[[nodiscard]] std::unique_ptr<ProtocolClient> make_protocol_client(
    Transport& transport, ClientConfig config);

}  // namespace sbp::sb
