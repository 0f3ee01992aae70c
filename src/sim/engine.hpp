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
//                sequence -- and atomically republish the LookupSnapshot
//              shards ticked in parallel on the thread pool:
//                staggered client re-syncs -- the shard's users whose
//                  re-sync slot is this tick and whose update channel's
//                  minimum-wait timer (update_wait) has expired fetch true
//                  incremental deltas (v3 missing chunks / v4 slices)
//                  through their shard transports
//                for each user of the shard:
//                    plan this tick's visits as 64-bit ids (sessions /
//                      revisits / targets / power-law page draws)
//                    dispatch each visit through the batched lookup layer
//              barrier; merge shard log buffers + reduce shard counters
//              advance the clock by one tick
//
// Parallel runtime: the shard is the unit of parallelism. Each shard owns
// every piece of mutable state a tick touches -- its users, a zero-latency
// sb::Transport (per-shard wire counters), the visit id -> prefix cache, the
// traffic model's site LRU, a query-log buffer and a tick-metrics
// accumulator -- so worker threads share only immutable state: the traffic
// model, the clock (read-only during a tick) and the server's published
// LookupSnapshot (lock-free reads; see sb/server.hpp). Client re-syncs run
// inside the parallel phase too: the serial churn epoch seals every list
// BEFORE the barrier opens, so concurrent updates read frozen server
// state (the update path itself is mutex-guarded, and its encode-cache
// totals are order-independent -- see sb/server.hpp), touch only
// shard-owned client state plus the population's mutex-guarded
// sb::SyncStateCache (one apply+rebuild per distinct state transition,
// whichever shard asks first; pruned only between ticks), and write
// nothing to the query log -- which is exactly why moving them off the
// engine thread changes no observable output. After the barrier
// the engine drains the per-shard log buffers in canonical
// (tick, shard, seq) order and sums the per-shard counters, which is why
// the same seed produces bit-identical logs and fingerprints at ANY
// `SimConfig.num_threads` -- including 1, the fully sequential engine.
//
// The batched dispatch layer is the engine's hot path: URL decompositions
// and their SHA-256 prefixes are computed once per distinct URL in a
// bounded per-shard cache (instead of once per user x visit). The cache is
// keyed by visit id, which is 1:1 with URL strings, so the URL string is
// built -- through the site LRU, which sits behind the URL cache -- only
// on a cache miss, where the LookupRequest consumes it. Each visit first
// runs a cheap local-store prefilter (client->local_contains) -- only the
// rare local hits enter the full sb::Client lookup flow with its cache,
// backoff and full-hash round trip. Semantics match a per-user
// client.lookup() for every URL: a prefilter miss is exactly the client's
// "no local hit -> safe, nothing leaves the machine" path.
//
// On top of the per-shard URL cache sits the LISTED-PREFIX UNIVERSE
// prefilter: the engine tracks every prefix the server has ever shipped
// (seed blacklist + every churn epoch's adds -- a superset of any client's
// store at any sync state, since stores only hold shipped prefixes) and
// memoizes, per cached URL, which of its prefixes are in that universe.
// URLs with no universe hit skip the per-user local_contains loop entirely
// -- for exact stores this is outcome-identical, so it is disabled when
// store_kind is Bloom (false positives must keep reaching the wire) and
// bypassed per-user for v1 clients (no local store; every URL ships).
// The universe only ever GROWS, so a cached "no universe hit" verdict
// stays valid until an epoch adds prefixes; each epoch that does bumps a
// version counter and every cache entry re-validates lazily on next use
// (metrics.url_cache_invalidations counts those stale-entry refreshes).
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

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mitigation/dummy_requests.hpp"
#include "obs/snapshot.hpp"
#include "sim/churn.hpp"
#include "sb/protocol.hpp"
#include "sb/server.hpp"
#include "sb/transport.hpp"
#include "sim/config.hpp"
#include "sim/thread_pool.hpp"
#include "sim/traffic_model.hpp"
#include "sim/user.hpp"
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

  /// Field-wise sum -- the post-barrier reduction of per-shard tick
  /// accumulators (which never set the serial-phase fields ticks_run /
  /// churn_events / churn_adds / churn_removes / injected_prefixes, so
  /// summing everything is safe; churn_updates IS shard-set now that
  /// re-syncs run inside the parallel shard tick).
  SimMetrics& operator+=(const SimMetrics& other) noexcept {
    ticks_run += other.ticks_run;
    lookups += other.lookups;
    local_hit_lookups += other.local_hit_lookups;
    dispatched_lookups += other.dispatched_lookups;
    mitigated_lookups += other.mitigated_lookups;
    malicious_verdicts += other.malicious_verdicts;
    target_visits += other.target_visits;
    churn_events += other.churn_events;
    churn_adds += other.churn_adds;
    churn_removes += other.churn_removes;
    injected_prefixes += other.injected_prefixes;
    churn_updates += other.churn_updates;
    url_cache_hits += other.url_cache_hits;
    url_cache_misses += other.url_cache_misses;
    url_cache_invalidations += other.url_cache_invalidations;
    return *this;
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
  [[nodiscard]] const SimMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const TrafficModel& traffic_model() const noexcept {
    return traffic_model_;
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

  /// Apply+rebuilds of client list states so far -- one per distinct
  /// (prior state, update), however many clients made that transition
  /// (exported as the `client_state_builds` counter).
  [[nodiscard]] std::uint64_t client_state_builds() const {
    return sync_states_->builds();
  }

  /// Site-cache hits and misses summed over the shards (exported as the
  /// `site_cache_hits` / `site_cache_misses` counters). The site cache is
  /// consulted once per URL-cache miss of a corpus page.
  [[nodiscard]] std::uint64_t site_cache_hits() const noexcept;
  [[nodiscard]] std::uint64_t site_cache_misses() const noexcept;

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

  /// URLs of corpus pages blacklisted at construction (test support).
  [[nodiscard]] const std::vector<std::string>& blacklisted_page_urls()
      const noexcept {
    return blacklisted_pages_;
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
  /// One URL decomposed and hashed once, shared across all users of a
  /// shard AND passed straight into ProtocolClient::lookup -- the request
  /// object is the same sb::LookupRequest every generation's lookup
  /// consumes, so a cache hit re-derives nothing.
  struct CachedUrl {
    sb::LookupRequest request;
    /// Subset of request.unique_prefixes() present in the listed-prefix
    /// universe as of `universe_version` (same order); empty = no client
    /// store can hit this URL, the prefilter fast path. Re-validated
    /// lazily whenever an epoch grows the universe (0 = never stamped).
    std::vector<crypto::Prefix32> universe_hits;
    std::uint64_t universe_version = 0;
  };

  /// Everything a tick mutates, owned per shard so worker threads never
  /// share writable state.
  struct Shard {
    Shard(std::unique_ptr<sb::Transport> transport_in,
          const TrafficModel& traffic_model, bool obs_enabled)
        : transport(std::move(transport_in)),
          site_cache(traffic_model.make_cache()) {
      // Attached before the initial syncs in build_population, so setup
      // traffic lands in the channel stats too.
      if (obs_enabled) transport->set_obs(&obs_transport);
    }

    /// Default: a zero-latency InProcessTransport on the engine's server;
    /// with SimConfig.transport_factory set, whatever the factory built
    /// (e.g. a SocketTransport to a remote daemon).
    std::unique_ptr<sb::Transport> transport;
    /// Consulted only on URL-cache misses, to build the missed URL.
    TrafficModel::SiteCache site_cache;
    std::vector<UserState> users;
    /// Keyed by visit id, which is 1:1 with URL strings (traffic_model.hpp).
    std::unordered_map<TrafficModel::VisitId, CachedUrl> url_cache;
    sb::QueryLogBuffer log_buffer;
    SimMetrics tick_metrics;  ///< zeroed per tick, reduced post-barrier
    /// One user's planned visits; reused, so planning stops allocating once
    /// the shard's high-water mark is reached.
    std::vector<TrafficModel::VisitId> visits;
    /// The URL of a URL-cache miss, built in a reused buffer.
    std::string url_scratch;
    /// LOCAL user indices (into `users`) bucketed by re-sync slot: bucket
    /// s holds, ascending, the shard's users polling for updates at ticks
    /// == s (mod resync_cadence()). The re-sync phase runs INSIDE
    /// tick_shard -- updates touch only shard-owned state (client stores,
    /// the shard transport) plus the server's lock-free snapshot reads and
    /// its mutex-guarded update path, and produce no query-log entries, so
    /// parallelizing them preserves the log and every counter bit-for-bit.
    /// Empty when churn is off.
    std::vector<std::vector<std::size_t>> resync_slots;
    /// Shard-confined profiling state (only touched with obs enabled):
    /// resync/plan/lookup span profiles, the shard transport's channel
    /// stats, and this tick's wall times for the per-tick series. Written
    /// only by the worker ticking this shard; merged post-barrier.
    obs::PhaseProfile obs_phases;
    obs::TransportObs obs_transport;
    std::uint64_t tick_plan_ns = 0;
    std::uint64_t tick_lookup_ns = 0;
    std::uint64_t tick_resync_ns = 0;
  };

  void seed_blacklist();
  void build_population();
  [[nodiscard]] UserState& user(std::size_t index);
  void build_listed_universe();
  void apply_churn_epoch();
  /// Recomputes entry.universe_hits against the current universe version.
  void stamp_universe(CachedUrl& entry) const;
  void tick_shard(Shard& shard);
  const CachedUrl& url_prefixes(Shard& shard, TrafficModel::VisitId visit);
  void dispatch(Shard& shard, UserState& user, TrafficModel::VisitId visit);
  void mitigated_dispatch(Shard& shard, UserState& user,
                          const CachedUrl& entry);

  SimConfig config_;
  sb::Server server_;
  sb::SimClock clock_;
  TrafficModel traffic_model_;
  mitigation::DummyPolicy dummy_policy_;

  /// Every client's list states come from this one cache: a fleet moving
  /// from one state to the next shares a single apply+rebuild and a
  /// single store. Pruned only between ticks (see step()).
  std::shared_ptr<sb::SyncStateCache> sync_states_ =
      std::make_shared<sb::SyncStateCache>(
          sb::SyncStateCache::Pruning::kManual);
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  std::uint64_t tick_ = 0;
  SimMetrics metrics_;

  /// Observability (config.collect_metrics). serial_profile_ holds the
  /// engine-thread phases (churn_epoch, parallel_tick, log_drain; resync
  /// is recorded per shard now that it runs inside the parallel tick);
  /// pool_obs_ is filled by the thread pool; the optional series grows by
  /// one sample per tick. All engine-thread-only.
  bool obs_enabled_ = false;
  obs::PhaseProfile serial_profile_;
  obs::PoolObs pool_obs_;
  std::vector<obs::TickSample> obs_series_;

  /// The epoch mutation planner (null when churn.epoch_ticks == 0).
  /// Re-sync slots live per shard (Shard::resync_slots): the staggered
  /// update polls run inside the parallel shard tick.
  std::unique_ptr<ChurnSchedule> churn_;
  std::uint64_t epoch_count_ = 0;

  /// Every prefix the server has ever shipped (seed lists + epoch adds);
  /// grows monotonically, read-only during parallel phases. The version
  /// counter bumps whenever an epoch grows the set, invalidating the
  /// per-shard URL-cache universe stamps.
  std::unordered_set<crypto::Prefix32> listed_universe_;
  std::uint64_t universe_version_ = 1;
  /// Fast path legal only for exact stores (Bloom false positives must
  /// keep producing wire traffic); v1 users bypass it per-user.
  bool universe_prefilter_ = true;

  std::vector<std::string> blacklisted_pages_;
};

}  // namespace sbp::sim
