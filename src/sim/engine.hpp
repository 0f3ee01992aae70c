// The deterministic population simulation engine (src/sim).
//
// Engine instantiates a shared sb::Server, seeds its blacklists from the
// synthetic web corpus, creates `num_users` synthetic users -- each with an
// independent RNG stream and a real sb::ProtocolClient of the configured
// generation (v1 / v3 / v4, mixable) -- and drives a tick loop:
//
//   per tick:  serial: churn epoch due? apply the ChurnSchedule's
//                add/retire plan + injections, seal one add (+ one sub)
//                chunk per list -- bumping the v3 chunk / v4 state-token
//                sequence
//              shards ticked in parallel on the thread pool:
//                staggered client re-syncs -- the shard's users whose
//                  re-sync slot is this tick and whose update channel's
//                  minimum-wait timer (update_wait) has expired fetch true
//                  incremental deltas (v3 missing chunks / v4 slices)
//                  through their shard transports
//                plan every user's visits for this tick as 64-bit ids
//                  (sessions / revisits / targets / power-law page draws)
//                dispatch the visits, in user order, through the batched
//                  lookup layer
//              barrier; merge shard log buffers + reduce shard counters
//              advance the clock by one tick
//
// Parallel runtime: the shard is the unit of parallelism. Each shard owns
// every piece of mutable state a tick touches -- its users, a zero-latency
// sb::Transport (per-shard wire counters), the visit id -> prefix cache, its
// lane of the site table, a query-log buffer and a tick-metrics
// accumulator -- so worker threads share only immutable state: the traffic
// model, the clock (read-only during a tick), the site table published at
// the last barrier (sim/traffic_model.hpp) and the server's lists, which
// the full-hash and v1 endpoints read with no lock (see sb/server.hpp). Client
// re-syncs run inside the parallel phase too: the serial churn epoch seals
// every list BEFORE the barrier opens, so concurrent updates read frozen
// server state, touch only shard-owned client state plus two shared
// caches -- the server's update encode cache and the population's
// sb::SyncStateCache (one apply+rebuild per distinct state transition,
// whichever shard asks first) -- and write nothing to the query log,
// which is exactly why moving them off the engine thread changes no
// observable output. Both caches are sb::PublishedTables: hits on the
// table published at the last barrier take no lock, misses serialize on
// the table's mutex with order-independent totals, and publish_shared_state
// (and lead_resyncs) publish -- the sync states also prune -- only between
// ticks. publish_shared_state also merges the shards' site-table lanes, in
// shard order. After the barrier the engine drains the per-shard log buffers in
// canonical (tick, shard, seq) order and sums the per-shard counters,
// which is why the same seed produces bit-identical logs and fingerprints
// at ANY `SimConfig.num_threads` -- including 1, the fully sequential
// engine.
//
// The batched dispatch layer is the engine's hot path: URL decompositions
// and their SHA-256 prefixes are computed once per distinct URL in a
// bounded per-shard cache (instead of once per user x visit). The cache is
// keyed by visit id, which is 1:1 with URL strings, so the URL string is
// built -- through the site table, which sits behind the URL cache -- only
// on a cache miss, where the LookupRequest consumes it. The cache is a
// flat open-addressed table (sim/url_cache.hpp) that grows on demand up to
// url_cache_entries; a full cache evicts by second chance (CLOCK), and the
// victim's entry keeps its one-buffer LookupRequest, so a warm miss rebuilds
// that entry in place: site-table hit, one slice copy, canonicalize + decompose
// into per-thread scratch, hashing straight into the entry -- no heap
// traffic. Each visit first runs a cheap local-store prefilter
// (client->local_contains_many) --
// only the rare local hits enter the full sb::Client lookup flow with its
// cache, backoff and full-hash round trip. Semantics match a per-user
// client.lookup() for every URL: a prefilter miss is exactly the client's
// "no local hit -> safe, nothing leaves the machine" path.
//
// On top of the per-shard URL cache sits the LISTED-PREFIX UNIVERSE
// prefilter: the engine tracks every prefix the server has ever shipped
// (seed blacklist + every churn epoch's adds -- a superset of any client's
// store at any sync state, since stores only hold shipped prefixes) in a
// flat open-addressed set (sim/prefix_set.hpp) and memoizes, per cached
// URL, which of its prefixes are in that universe. The memo -- a stamp of
// hit bits plus the universe version -- lives in the URL's URL-cache slot,
// so a hit on a URL with no listed prefix reads one 24-byte slot and
// returns: it skips the entry's request, the client and the per-user
// local_contains_many probe entirely. For exact stores this is
// outcome-identical, so it is disabled when store_kind is Bloom (false
// positives must keep reaching the wire) and bypassed per-user for v1
// clients (no local store; every URL ships) -- UserState::exact_store,
// set once at construction, says which users it serves. It pays for
// itself: forcing every store through the no-universe path cut benchmark
// throughput by 40-62% on browse-static and by 33-50% on churn-resync
// (4-vCPU host, 3-8 s runs).
// The universe only ever GROWS, so a cached "no universe hit" verdict
// stays valid until an epoch adds prefixes; each epoch that does bumps a
// version counter, and every slot re-validates lazily on its next hit: a
// full re-stamp, one flat-set probe per unique prefix of the entry's
// request (metrics.url_cache_invalidations counts those re-stamps). Under
// churn, tick_shard first prefetches the request of every stale slot the
// shard-tick's visits will hit, so the re-stamps' cache misses overlap.
//
// The server's query log -- the paper's adversarial observable -- streams
// into any sb::QueryLogSink (sim/log_sink.hpp), so populations far larger
// than a RAM-resident log can run end to end.
//
// Determinism: same SimConfig (including seed, EXCLUDING num_threads) =>
// bit-identical query log, regardless of sink choice or thread count.
// Every random decision draws from a stream derived from config.seed and a
// stable index.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mitigation/dummy_requests.hpp"
#include "obs/snapshot.hpp"
#include "sim/churn.hpp"
#include "sb/protocol.hpp"
#include "sb/server.hpp"
#include "sb/transport.hpp"
#include "sim/config.hpp"
#include "sim/prefix_set.hpp"
#include "sim/thread_pool.hpp"
#include "sim/traffic_model.hpp"
#include "sim/url_cache.hpp"
#include "sim/user.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace sbp::sim {

/// Engine-level counters (the engine's own view; per-client counters are
/// aggregated separately by population_metrics()). Reduced from per-shard
/// accumulators after every tick barrier -- all sums, so the reduction is
/// order- and thread-count-independent.
struct SimMetrics {
  std::uint64_t ticks_run = 0;
  std::uint64_t lookups = 0;            ///< URLs browsed by the population
  std::uint64_t local_hit_lookups = 0;  ///< lookups passing the prefilter
  std::uint64_t dispatched_lookups = 0; ///< full client-flow lookups
  std::uint64_t mitigated_lookups = 0;  ///< lookups via the padded path
  std::uint64_t malicious_verdicts = 0;
  std::uint64_t target_visits = 0;
  std::uint64_t churn_events = 0;       ///< churn epochs applied
  std::uint64_t churn_adds = 0;         ///< expressions added by epochs
  std::uint64_t churn_removes = 0;      ///< expressions retired by epochs
  std::uint64_t injected_prefixes = 0;  ///< targeted injections applied
  std::uint64_t churn_updates = 0;      ///< client update() calls from churn
  std::uint64_t url_cache_hits = 0;     ///< summed over per-shard caches
  std::uint64_t url_cache_misses = 0;
  /// Cache entries whose universe stamp went stale after an epoch added
  /// prefixes and were lazily re-validated on their next use.
  std::uint64_t url_cache_invalidations = 0;

  /// Shared-state counters, set from their sources at each tick barrier
  /// (not summed): apply+rebuilds of client list states -- one per
  /// distinct (prior state, update), however many clients made that
  /// transition -- and the site table's hits and misses (the table is
  /// consulted once per URL-cache miss of a corpus page).
  std::uint64_t client_state_builds = 0;
  std::uint64_t site_cache_hits = 0;
  std::uint64_t site_cache_misses = 0;
  /// Corpus pages generated by the blacklist seed and the site table's
  /// misses (each generates a prefix of its site or the whole site).
  std::uint64_t corpus_pages_generated = 0;

  static constexpr util::CounterField<SimMetrics> kCounters[] = {
      {"ticks_run", &SimMetrics::ticks_run},
      {"lookups", &SimMetrics::lookups},
      {"local_hit_lookups", &SimMetrics::local_hit_lookups},
      {"dispatched_lookups", &SimMetrics::dispatched_lookups},
      {"mitigated_lookups", &SimMetrics::mitigated_lookups},
      {"malicious_verdicts", &SimMetrics::malicious_verdicts},
      {"target_visits", &SimMetrics::target_visits},
      {"churn_events", &SimMetrics::churn_events},
      {"churn_adds", &SimMetrics::churn_adds},
      {"churn_removes", &SimMetrics::churn_removes},
      {"injected_prefixes", &SimMetrics::injected_prefixes},
      {"churn_updates", &SimMetrics::churn_updates},
      {"url_cache_hits", &SimMetrics::url_cache_hits},
      {"url_cache_misses", &SimMetrics::url_cache_misses},
      {"url_cache_invalidations", &SimMetrics::url_cache_invalidations},
      {"client_state_builds", &SimMetrics::client_state_builds},
      {"site_cache_hits", &SimMetrics::site_cache_hits},
      {"site_cache_misses", &SimMetrics::site_cache_misses},
      {"corpus_pages_generated", &SimMetrics::corpus_pages_generated},
  };

  /// Field-wise sum -- the post-barrier reduction of per-shard tick
  /// accumulators (which never set the serial-phase fields ticks_run /
  /// churn_events / churn_adds / churn_removes / injected_prefixes nor the
  /// shared-state counters, so summing everything is safe; churn_updates
  /// IS shard-set now that re-syncs run inside the parallel shard tick).
  SimMetrics& operator+=(const SimMetrics& other) noexcept {
    return util::add_counters(*this, other);
  }
};

class Engine {
 public:
  explicit Engine(SimConfig config);

  /// Streams the server query log into `sink` (see sb::Server). With
  /// `retain_in_memory` false the server keeps no log of its own -- the
  /// mode for populations whose logs exceed RAM. The sink is only ever
  /// invoked from the engine's own thread (post-barrier drain), so sinks
  /// need no locking.
  void attach_sink(sb::QueryLogSink* sink, bool retain_in_memory = false) {
    server_.set_query_log_sink(sink, retain_in_memory);
  }

  /// Runs one tick; returns false once config.ticks have run.
  bool step();
  /// Runs all remaining ticks.
  void run();

  [[nodiscard]] std::uint64_t current_tick() const noexcept { return tick_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] sb::Server& server() noexcept { return server_; }
  [[nodiscard]] const sb::Server& server() const noexcept { return server_; }
  /// Wire counters summed across every shard transport.
  [[nodiscard]] sb::TransportStats transport_stats() const;
  /// Update responses the shard transports answered from their decode
  /// memos (sb::FrameTransport), summed; a factory-built transport that is
  /// not a FrameTransport counts none.
  [[nodiscard]] std::uint64_t update_decode_reuses() const;
  [[nodiscard]] const SimMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const TrafficModel& traffic_model() const noexcept {
    return traffic_model_;
  }
  /// The shards' shared site table (test support).
  [[nodiscard]] const SiteTable& site_table() const noexcept {
    return site_table_;
  }
  [[nodiscard]] std::size_t num_users() const noexcept;
  /// Compute threads actually used (config.num_threads resolved against
  /// hardware concurrency and the shard count).
  [[nodiscard]] std::size_t num_threads() const noexcept {
    return pool_->size();
  }

  /// Sum of every client's ClientMetrics. Note: `lookups` here counts only
  /// dispatched (local-hit) lookups -- the prefilter answers the rest; the
  /// population-wide browse count is metrics().lookups.
  [[nodiscard]] sb::ClientMetrics population_metrics() const;

  /// Ground truth of the interest group (cookies of interested users).
  [[nodiscard]] std::vector<sb::Cookie> interested_cookies() const;

  /// The Safe Browsing stack of user `index` (test/experiment support --
  /// e.g. checking post-churn convergence of a v4 client's store checksum
  /// against the server's effective set).
  [[nodiscard]] sb::ProtocolClient& user_client(std::size_t index) {
    return *user(index).client;
  }

  /// Churn epochs applied so far (= metrics().churn_events).
  [[nodiscard]] std::uint64_t churn_epochs() const noexcept {
    return epoch_count_;
  }

  /// The population's shared client-state cache (test support).
  [[nodiscard]] const sb::SyncStateCache& sync_states() const noexcept {
    return *sync_states_;
  }

  /// The tick distance between a user's scheduled re-syncs under churn:
  /// `churn.minimum_wait_ticks`, defaulting to one epoch.
  [[nodiscard]] std::uint64_t resync_cadence() const noexcept {
    return config_.churn.minimum_wait_ticks > 0
               ? config_.churn.minimum_wait_ticks
               : config_.churn.epoch_ticks;
  }

  /// Whether config.collect_metrics turned the profiling layer on.
  [[nodiscard]] bool metrics_enabled() const noexcept { return obs_enabled_; }

  /// The run's observability snapshot (src/obs): serial-phase profile plus
  /// every shard's plan/lookup profile, transport channels and the pool's
  /// batch stats, merged in canonical shard order -- so the same run
  /// yields the same snapshot structure at any thread count (the VALUES
  /// are wall times and necessarily vary). Meaningful after step()s with
  /// collect_metrics on; with it off returns an all-zero snapshot with
  /// enabled=false.
  [[nodiscard]] obs::Snapshot obs_snapshot() const;

 private:
  /// Everything a tick mutates, owned per shard so worker threads never
  /// share writable state.
  struct Shard {
    Shard(std::unique_ptr<sb::Transport> transport_in, SiteTable::Lane& sites,
          std::size_t url_cache_entries, bool obs_enabled)
        : transport(std::move(transport_in)),
          sites(sites),
          url_cache(url_cache_entries) {
      // Attached before the initial syncs in build_population, so setup
      // traffic lands in the channel stats too.
      if (obs_enabled) transport->set_obs(&obs_transport);
    }

    /// Default: a zero-latency InProcessTransport on the engine's server;
    /// with SimConfig.transport_factory set, whatever the factory built
    /// (e.g. a SocketTransport to a remote daemon).
    std::unique_ptr<sb::Transport> transport;
    /// This shard's lane of site_table_, consulted only on URL-cache
    /// misses, to build the missed URL.
    SiteTable::Lane& sites;
    std::vector<UserState> users;
    /// Keyed by visit id, which is 1:1 with URL strings (traffic_model.hpp).
    UrlCache url_cache;
    sb::QueryLogBuffer log_buffer;
    SimMetrics tick_metrics;  ///< zeroed per tick, reduced post-barrier
    /// This tick's planned visits of every user of the shard, in user
    /// order; user u's end at visit_ends[u]. Both are reused, so planning
    /// stops allocating once the shard's high-water mark is reached.
    std::vector<TrafficModel::VisitId> visits;
    std::vector<std::size_t> visit_ends;
    /// The URL of a URL-cache miss, built in a reused buffer.
    std::string url_scratch;
    /// The padded path's locally hit prefixes, reused across lookups.
    std::vector<crypto::Prefix32> mitigation_hits;
    /// LOCAL user indices (into `users`) bucketed by re-sync slot: bucket
    /// s holds, ascending, the shard's users polling for updates at ticks
    /// == s (mod resync_cadence()). The re-sync phase runs INSIDE
    /// tick_shard -- updates touch only shard-owned state (client stores,
    /// the shard transport) plus the server's snapshot reads, its update
    /// path and the shared sync-state cache, and produce no query-log
    /// entries, so parallelizing them preserves the log and every counter
    /// bit-for-bit.
    /// Empty when churn is off.
    std::vector<std::vector<std::size_t>> resync_slots;
    /// This tick's next position in its re-sync slot: past the users the
    /// epoch's lead re-sync already polled (see Engine::lead_resyncs).
    std::size_t resync_next = 0;
    /// Shard-confined profiling state (only touched with obs enabled):
    /// resync/plan/lookup span profiles and lookup's site/url_build
    /// sub-phases, and the shard transport's channel stats. Written only
    /// by the worker ticking this shard; merged post-barrier.
    obs::PhaseProfile obs_phases;
    obs::TransportObs obs_transport;
  };

  void seed_blacklist();
  void build_population();
  [[nodiscard]] UserState& user(std::size_t index);
  void build_listed_universe();
  void apply_churn_epoch();
  /// Re-stamps `stamp` from scratch: one universe probe per unique prefix
  /// of `request`, then the current universe version.
  void stamp_universe(UrlCache::Stamp& stamp,
                      const sb::LookupRequest& request) const;
  /// Serial, at the barrier: prunes and publishes the sync-state cache,
  /// publishes the server's update encode cache and merges the site
  /// table's lanes.
  void publish_shared_state();
  /// Polls `shard`'s users due this tick from shard.resync_next on, in slot
  /// order, updating those whose update channel allows it; with
  /// `lead_only`, stops after the first update.
  void resync_due(Shard& shard, bool lead_only);
  /// Serial, after an epoch: each shard's first due update, then both
  /// shared caches publish what it encoded and built.
  void lead_resyncs();
  void tick_shard(Shard& shard);
  /// The URL-cache slot of `visit`, its entry built on a miss and its
  /// stamp current.
  UrlCache::Ref url_prefixes(Shard& shard, TrafficModel::VisitId visit);
  void dispatch(Shard& shard, UserState& user, TrafficModel::VisitId visit);
  void mitigated_dispatch(Shard& shard, UserState& user,
                          const UrlCache::Entry& entry);

  /// Started with construction (reads the clock only with metrics on).
  /// Declared first so it starts before any other member is built.
  obs::Stopwatch setup_watch_;
  SimConfig config_;
  sb::Server server_;
  sb::SimClock clock_;
  TrafficModel traffic_model_;
  /// site_cache_entries per shard, one lane per shard.
  SiteTable site_table_;
  mitigation::DummyPolicy dummy_policy_;

  /// Every client's list states come from this one cache: a fleet moving
  /// from one state to the next shares a single apply+rebuild and a
  /// single store. Pruned only between ticks (see step()).
  std::shared_ptr<sb::SyncStateCache> sync_states_ =
      std::make_shared<sb::SyncStateCache>();
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  std::uint64_t tick_ = 0;
  SimMetrics metrics_;

  /// Observability (config.collect_metrics). serial_profile_ holds the
  /// engine-thread phases (churn_epoch, parallel_tick, log_drain; resync
  /// is recorded per shard now that it runs inside the parallel tick);
  /// pool_obs_ is filled by the thread pool; the optional series grows by
  /// one sample per tick, the change in the summed phase totals since
  /// series_totals_. All engine-thread-only.
  bool obs_enabled_ = false;
  obs::SetupTimes setup_;
  obs::PhaseProfile serial_profile_;
  obs::PoolObs pool_obs_;
  std::vector<obs::TickSample> obs_series_;
  std::array<std::uint64_t, obs::kPhaseCount> series_totals_{};

  /// The epoch mutation planner (null when churn.epoch_ticks == 0).
  /// Re-sync slots live per shard (Shard::resync_slots): the staggered
  /// update polls run inside the parallel shard tick.
  std::unique_ptr<ChurnSchedule> churn_;
  std::uint64_t epoch_count_ = 0;

  /// Every prefix the server has ever shipped (seed lists + epoch adds);
  /// grows monotonically, in the serial epoch only, and the parallel phase
  /// only reads it. The version counter bumps whenever an epoch grows the
  /// set, making every per-shard URL-cache stamp stale.
  PrefixSet listed_universe_;
  std::uint32_t universe_version_ = 1;

  /// Pages seed_blacklist generated (the corpus_pages_generated base).
  std::uint64_t seed_pages_generated_ = 0;
};

}  // namespace sbp::sim
