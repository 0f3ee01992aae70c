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
// PrefixProtocolClient factors out the prefix-based lookup flow shared by
// v3 and v4 (Figure 3): local-store hit -> full-hash cache -> batched
// full-hash request with the SB cookie -> digest confirmation. The
// generations differ only in how the local store is synchronized.
#pragma once

#include <algorithm>
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

/// Shared prefix-based lookup flow (v3 and v4): one batched local-store
/// test over the request's decomposition prefixes, then resolve hits via
/// cache or one batched full-hash request and confirm against full
/// digests. Subclasses provide the local store (local_contains_many) and
/// the update mechanism; their synced list states come from
/// `config_.sync_states` when set, else from sb::apply_v3 / sb::apply_v4.
class PrefixProtocolClient : public ProtocolClient {
 public:
  using ProtocolClient::lookup;  // keep the string convenience visible
  [[nodiscard]] LookupResult lookup(const LookupRequest& request) override;

 protected:
  PrefixProtocolClient(Transport& transport, ClientConfig config)
      : ProtocolClient(transport, config),
        cache_(config.full_hash_ttl),
        full_hash_backoff_(config.backoff, config.cookie ^ 0x5B5B5B5B) {}

  storage::FullHashCache cache_;
  BackoffState full_hash_backoff_;
};

/// The local_contains_many of a client holding one store per list: ORs
/// every list's contains_many32 answer into `out`, 64 queries at a time
/// (stack scratch; longer batches are split, preserving order).
/// `store_of(list)` returns the list's store, or null when it has none yet.
template <typename Lists, typename StoreOf>
void or_list_stores(const Lists& lists, StoreOf store_of,
                    std::span<const crypto::Prefix32> prefixes,
                    std::span<bool> out) {
  const std::size_t n = prefixes.size();
  std::fill(out.begin(), out.begin() + n, false);
  bool tmp[64];
  for (const auto& list : lists) {
    const auto* store = store_of(list);
    if (store == nullptr) continue;
    for (std::size_t base = 0; base < n; base += 64) {
      const std::size_t count = std::min<std::size_t>(64, n - base);
      store->contains_many32(prefixes.subspan(base, count),
                             std::span<bool>(tmp, count));
      for (std::size_t i = 0; i < count; ++i) {
        out[base + i] = out[base + i] || tmp[i];
      }
    }
  }
}

/// Instantiates the implementation for `config.protocol`.
[[nodiscard]] std::unique_ptr<ProtocolClient> make_protocol_client(
    Transport& transport, ClientConfig config);

}  // namespace sbp::sb
