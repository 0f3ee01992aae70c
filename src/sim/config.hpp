// Configuration of the deterministic traffic simulation engine (src/sim).
//
// The paper's re-identification, tracking (Algorithm 1) and history
// reconstruction results are statements about what a Safe Browsing provider
// observes when *many* users browse concurrently. SimConfig describes such a
// population end to end: how big it is, how it browses (power-law URL
// popularity, revisit locality, bursty sessions), what the provider's
// blacklists contain and how they churn, and which client-side mitigations
// are active. Every field feeds a seeded RNG stream, so two runs with equal
// configs produce bit-identical server query logs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "corpus/web_corpus.hpp"
#include "sb/list_spec.hpp"
#include "sb/protocol_version.hpp"
#include "sim/churn.hpp"
#include "storage/prefix_store.hpp"

namespace sbp::sb {
class Server;
class SimClock;
class Transport;
}

namespace sbp::sim {

/// How each user browses. The defaults give bursty sessions over a
/// power-law-popular web with moderate revisit locality -- the traffic shape
/// the paper's Section 6 analyses presuppose.
struct TrafficConfig {
  /// Power-law exponent of site popularity (rank 1 = most popular site).
  /// Must be > 1; larger = more head-heavy traffic.
  double site_popularity_alpha = 1.8;

  /// Probability that a lookup revisits a URL from the user's recent
  /// history instead of sampling a fresh page (temporal locality; revisits
  /// are what the client's full-hash cache absorbs).
  double revisit_probability = 0.25;
  /// Size of the per-user recent-history ring buffer revisits draw from.
  std::size_t revisit_window = 8;

  /// Per-tick probability that an idle user starts a browsing session.
  double session_start_probability = 0.08;
  /// Per-tick probability that an active session continues next tick.
  double session_continue_probability = 0.75;
  /// Lookups an active user performs per tick (the burst height).
  std::size_t lookups_per_active_tick = 1;

  /// Optional interest-group targets (the Section 6.3 tracking scenario):
  /// `interested_fraction` of users also visit `target_urls`.
  std::vector<std::string> target_urls;
  double interested_fraction = 0.0;
  /// Per-lookup probability that an interested user picks a target URL.
  double target_visit_probability = 0.15;
};

/// Server-side blacklist construction at t=0 (live churn after t=0 is
/// `SimConfig.churn`, sim/churn.hpp).
struct BlacklistConfig {
  /// Lists created on the simulated server; all users subscribe to all.
  std::vector<std::string> lists = {"goog-malware-shavar"};

  /// Fraction of corpus pages blacklisted at t=0 (exact page expressions).
  double page_fraction = 0.01;
  /// Fraction of sites whose registrable domain is blacklisted as "domain/"
  /// -- any page of such a site produces a local hit, and pages that are
  /// themselves blacklisted then produce multi-prefix queries (the paper's
  /// strongest re-identification signal, Section 5.3).
  double site_fraction = 0.002;
  /// Hard cap on generated entries (keeps client stores bounded).
  std::size_t max_entries = 4096;
  /// Orphan prefixes injected per list (Section 7.2 tampering evidence).
  std::size_t orphan_prefixes = 0;
};

/// Client-side mitigation toggles (paper Section 8).
struct MitigationConfig {
  /// Firefox-style deterministic dummy requests: every full-hash request is
  /// padded with `dummies_per_prefix` decoys per real prefix.
  bool dummy_requests = false;
  unsigned dummies_per_prefix = 4;
};

/// The complete simulation: population, duration, web, lists, mitigations.
struct SimConfig {
  std::size_t num_users = 1000;
  std::uint64_t ticks = 100;
  /// Users are partitioned into shards -- the engine's unit of parallelism.
  /// Each shard owns its Transport, URL-prefix cache, site-table lane and
  /// query-log buffer, so shards share no mutable state during a tick.
  std::size_t num_shards = 8;
  /// Worker threads ticking shards in parallel (effective parallelism is
  /// min(num_threads, num_shards)). 0 = hardware concurrency; 1 = fully
  /// sequential, the pre-parallel engine. The determinism contract holds
  /// at ANY value: same seed + config => bit-identical query logs and
  /// fingerprints, regardless of thread count (the engine buffers each
  /// shard's log entries and merges them in canonical (tick, shard, seq)
  /// order after every tick's barrier).
  std::size_t num_threads = 0;
  std::uint64_t seed = 1;
  sb::Provider provider = sb::Provider::kGoogle;

  /// The synthetic web users browse (and blacklists are drawn from).
  corpus::CorpusConfig corpus = default_corpus();

  TrafficConfig traffic;
  BlacklistConfig blacklist;
  /// Live blacklist churn: epoch-based list mutation + staggered client
  /// re-syncs on the server's minimum-wait timer (sim/churn.hpp). With
  /// `churn.epoch_ticks == 0` (default) the lists are sealed once before
  /// tick 0 and never change.
  ChurnConfig churn;
  MitigationConfig mitigation;

  /// Protocol generation the population speaks (sb/protocol_version.hpp):
  /// v1 clear-URL lookups, v3 chunked (the paper's protocol, default), or
  /// v4 sliced updates. The query-log observation point is identical for
  /// all three, so every analysis runs unchanged.
  sb::ProtocolVersion protocol = sb::ProtocolVersion::kV3Chunked;
  /// Mixed-generation populations: this fraction of users (evenly spread,
  /// like the interest group) speaks `mix_protocol` instead of `protocol`
  /// -- modeling a fleet mid-migration between generations.
  double mix_fraction = 0.0;
  sb::ProtocolVersion mix_protocol = sb::ProtocolVersion::kV4Sliced;

  /// Local-store representation of every simulated client.
  storage::StoreKind store_kind = storage::StoreKind::kDeltaCoded;
  /// Per-client Bloom size in bits when `store_kind == kBloom`. 0 keeps
  /// Chromium's historical 3 MB constant (Table 2 fidelity) -- correct for
  /// one client, ruinous times 100k simulated users, so population
  /// scenarios size it to their blacklist cardinality (~32 bits/entry
  /// matches Chromium's 3 MB / 630k ratio).
  std::size_t bloom_bits = 0;
  /// TTL of client full-hash caches (0 = until the next update clears them).
  std::uint64_t full_hash_ttl = 0;

  /// Metrics & profiling collection (src/obs): phase timers, per-shard
  /// histograms, thread-pool and transport instrumentation, exported by
  /// Engine::obs_snapshot(). Off by default -- the instrumented paths
  /// then read no clocks at all. Like num_threads, these knobs are
  /// OUTSIDE the determinism contract: enabling them changes no query
  /// log byte, no fingerprint and no wire count at any thread count
  /// (tests/obs/determinism_test.cpp pins this down).
  bool collect_metrics = false;
  /// Additionally keep a per-tick phase wall-time series in the snapshot
  /// (one TickSample per tick -- meant for runs of thousands of ticks,
  /// not millions).
  bool metrics_per_tick_series = false;

  /// Bound on EACH shard's URL -> decomposition-prefix cache (the caches
  /// are per-shard so parallel ticks share no mutable state; worst-case
  /// total is num_shards x this).
  std::size_t url_cache_entries = 1 << 16;
  /// Per-shard budget of the engine's one generated-site table, which
  /// holds at most num_shards x this.
  std::size_t site_cache_entries = 256;

  /// Invoked after the corpus blacklist is seeded but before lists are
  /// sealed and clients sync -- the hook tracking experiments use to deploy
  /// shadow prefixes (Algorithm 1) into the live lists.
  std::function<void(sb::Server&)> server_setup;

  /// Optional per-shard transport factory. When set, each shard's
  /// transport comes from this hook instead of the default zero-latency
  /// in-process transport bound to the engine's own server -- the seam
  /// that points a whole simulated fleet at a remote sbserved daemon
  /// (net::SocketTransport). The factory receives the shard index and the
  /// engine's clock; implementations must only READ the clock (the engine
  /// advances it). Like server_setup and num_threads, this hook is outside
  /// the JSON scenario round trip; determinism then depends on the remote
  /// endpoint serving the same state an in-process run would.
  std::function<std::unique_ptr<sb::Transport>(std::size_t shard_index,
                                               sb::SimClock& clock)>
      transport_factory;

  /// A corpus sized for simulation: bounded pages-per-site so sampling any
  /// site is cheap, paper-shaped otherwise.
  [[nodiscard]] static corpus::CorpusConfig default_corpus() {
    corpus::CorpusConfig config;
    config.num_hosts = 5000;
    config.seed = 1;
    config.max_pages = 500;
    return config;
  }
};

}  // namespace sbp::sim
