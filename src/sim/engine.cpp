#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <span>
#include <thread>
#include <utility>

namespace sbp::sim {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// Stable per-purpose seed derivation (same scheme as the corpus).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ salt;
  return util::splitmix64(state);
}

std::size_t resolve_threads(std::size_t requested, std::size_t num_shards) {
  if (requested == 0) {
    requested = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::max<std::size_t>(1, std::min(requested, num_shards));
}

}  // namespace

Engine::Engine(SimConfig config)
    : config_(std::move(config)),
      server_(config_.provider),
      traffic_model_(config_.traffic, config_.corpus,
                     config_.site_cache_entries),
      dummy_policy_(config_.mitigation.dummies_per_prefix) {
  obs_enabled_ = config_.collect_metrics;  // before shards are built
  for (const auto& list : config_.blacklist.lists) {
    server_.create_list(list);
  }
  universe_prefilter_ = config_.store_kind != storage::StoreKind::kBloom;
  if (config_.churn.epoch_ticks > 0) {
    churn_ = std::make_unique<ChurnSchedule>(
        config_.churn, config_.blacklist.lists,
        derive_seed(config_.seed, 0xC4012BADC4012BADULL));
    // The server dictates the fleet's update cadence (v3 next_update_after
    // / v4 minimum_wait); it gates the initial sync too, so the first
    // mid-run re-sync of any user lands in [cadence, 2*cadence).
    server_.set_minimum_wait(resync_cadence());
  }
  seed_blacklist();
  if (config_.server_setup) config_.server_setup(server_);
  for (const auto& list : server_.list_names()) {
    server_.seal_chunk(list);
  }
  build_listed_universe();
  build_population();
  pool_ = std::make_unique<ThreadPool>(
      resolve_threads(config_.num_threads, shards_.size()));
  if (obs_enabled_) pool_->set_obs(&pool_obs_);
}

void Engine::build_listed_universe() {
  // Everything shipped at t=0 (corpus seeds, server_setup additions,
  // orphans); epoch adds extend it incrementally.
  for (const auto& list : server_.list_names()) {
    for (const auto prefix : server_.prefixes(list)) {
      listed_universe_.insert(prefix);
    }
  }
}

void Engine::seed_blacklist() {
  const BlacklistConfig& blacklist = config_.blacklist;
  if (blacklist.lists.empty()) return;
  util::Rng rng(derive_seed(config_.seed, 0xB1AC1157B1AC1157ULL));
  const corpus::WebCorpus& corpus = traffic_model_.corpus();

  std::size_t entries = 0;
  std::size_t round_robin = 0;
  const auto next_list = [&]() -> const std::string& {
    return blacklist.lists[round_robin++ % blacklist.lists.size()];
  };
  const auto blacklist_expression = [&](const std::string& list,
                                        const std::string& expression) {
    server_.add_expression(list, expression);
    // Seed entries enter the churn schedule's live FIFO so later epochs
    // can retire them (the aging that decays day-zero crawl knowledge).
    if (churn_) churn_->register_seed_expression(list, expression);
  };

  std::vector<std::uint32_t> page_indices;
  for (std::size_t s = 0;
       s < corpus.num_hosts() && entries < blacklist.max_entries; ++s) {
    // Whole-site entries: the registrable domain as "domain/", which every
    // page of the site decomposes to.
    if (blacklist.site_fraction > 0.0 &&
        rng.next_bool(blacklist.site_fraction)) {
      blacklist_expression(next_list(), corpus.site_domain(s) + "/");
      ++entries;
      if (entries >= blacklist.max_entries) break;
    }

    // Exact-page entries: Binomial(count, fraction) approximated by its
    // expectation plus a Bernoulli remainder (cheap and unbiased).
    const std::uint64_t count = corpus.site_page_count(s);
    const double expected =
        static_cast<double>(count) * blacklist.page_fraction;
    std::uint64_t k = static_cast<std::uint64_t>(expected);
    if (rng.next_bool(expected - static_cast<double>(k))) ++k;
    k = std::min({k, count,
                  static_cast<std::uint64_t>(blacklist.max_entries - entries)});
    if (k == 0) continue;

    const corpus::Site site = corpus.site(s);
    page_indices.resize(site.pages.size());
    std::iota(page_indices.begin(), page_indices.end(), 0);
    for (std::uint64_t i = 0; i < k; ++i) {  // partial Fisher-Yates
      const std::size_t j =
          i + rng.next_below(page_indices.size() - i);
      std::swap(page_indices[i], page_indices[j]);
      const corpus::Page& page = site.pages[page_indices[i]];
      blacklist_expression(next_list(), page.expression());
      blacklisted_pages_.push_back(page.url());
      ++entries;
    }
  }

  for (const auto& list : blacklist.lists) {
    for (std::size_t i = 0; i < blacklist.orphan_prefixes; ++i) {
      server_.add_orphan_prefix(list,
                                static_cast<crypto::Prefix32>(rng.next()));
    }
  }
}

void Engine::build_population() {
  const std::size_t num_shards =
      std::max<std::size_t>(1, config_.num_shards);
  shards_.clear();
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::unique_ptr<sb::Transport> transport =
        config_.transport_factory
            ? config_.transport_factory(s, clock_)
            : std::make_unique<sb::InProcessTransport>(
                  server_, clock_, /*round_trip_ticks=*/0);
    shards_.push_back(std::make_unique<Shard>(std::move(transport),
                                              traffic_model_, obs_enabled_));
  }
  const double interested = config_.traffic.interested_fraction;

  if (churn_) {
    // Deterministic re-sync slots: each user polls for updates every
    // resync_cadence() ticks at its own offset, spreading the fleet's
    // update load evenly over the cadence window (real fleets jitter
    // their timers for the same reason). Bucketed per shard (by LOCAL
    // user index) so each shard re-syncs exactly its own due users
    // inside the parallel tick.
    const std::uint64_t cadence = resync_cadence();
    for (auto& shard : shards_) shard->resync_slots.resize(cadence);
    for (std::size_t u = 0; u < config_.num_users; ++u) {
      const std::uint64_t slot =
          derive_seed(config_.seed, 0x5C4EDB1E00000000ULL + u * kGolden) %
          cadence;
      shards_[u % num_shards]->resync_slots[slot].push_back(u / num_shards);
    }
  }

  const double mixed = config_.mix_fraction;
  for (std::size_t u = 0; u < config_.num_users; ++u) {
    UserState user;
    user.cookie = static_cast<sb::Cookie>(u + 1);
    user.rng = util::Rng(
        derive_seed(config_.seed, 0x05E2000000000000ULL + u * kGolden));
    // Evenly spread interest so the group size is exact, not sampled.
    user.interested =
        static_cast<std::size_t>(static_cast<double>(u + 1) * interested) >
        static_cast<std::size_t>(static_cast<double>(u) * interested);
    // Same even-spread trick for the protocol mix (exact split), but over
    // the REVERSED user index: reusing the ascending spread would make the
    // mix group coincide with the interest group whenever the fractions
    // match, confounding generation-vs-behaviour comparisons.
    const std::size_t v = config_.num_users - 1 - u;
    const bool mix_member =
        static_cast<std::size_t>(static_cast<double>(v + 1) * mixed) >
        static_cast<std::size_t>(static_cast<double>(v) * mixed);

    Shard& shard = *shards_[u % num_shards];
    sb::ClientConfig client_config;
    client_config.protocol =
        mix_member ? config_.mix_protocol : config_.protocol;
    client_config.store_kind = config_.store_kind;
    client_config.bloom_bits = config_.bloom_bits;
    client_config.full_hash_ttl = config_.full_hash_ttl;
    client_config.cookie = user.cookie;
    client_config.sync_states = sync_states_;
    // Clients bind to their shard's transport: every wire request a user
    // makes counts against (and only touches) shard-local state.
    user.client = sb::make_protocol_client(*shard.transport, client_config);
    for (const auto& list : config_.blacklist.lists) {
      user.client->subscribe(list);
    }
    (void)user.client->update();

    shard.users.push_back(std::move(user));
  }
  sync_states_->prune();
}

UserState& Engine::user(std::size_t index) {
  return shards_[index % shards_.size()]->users[index / shards_.size()];
}

std::size_t Engine::num_users() const noexcept { return config_.num_users; }

std::uint64_t Engine::site_cache_hits() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->site_cache.hits();
  return total;
}

std::uint64_t Engine::site_cache_misses() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->site_cache.misses();
  return total;
}

sb::TransportStats Engine::transport_stats() const {
  sb::TransportStats total;
  for (const auto& shard : shards_) total += shard->transport->stats();
  return total;
}

void Engine::apply_churn_epoch() {
  const ChurnSchedule::EpochPlan plan = churn_->plan_epoch(++epoch_count_);
  bool universe_grew = false;
  const auto publish = [&](const std::string& list,
                           const std::string& expression) {
    server_.add_expression(list, expression);
    universe_grew |=
        listed_universe_.insert(crypto::prefix32_of(expression)).second;
  };

  for (const auto& list_plan : plan.lists) {
    server_.remove_expressions(list_plan.list, list_plan.remove_expressions);
    metrics_.churn_removes += list_plan.remove_expressions.size();
    for (const auto& expression : list_plan.add_expressions) {
      publish(list_plan.list, expression);
    }
    metrics_.churn_adds += list_plan.add_expressions.size();
  }
  for (const auto& injection : plan.injections) {
    publish(injection.list, injection.expression);
    ++metrics_.injected_prefixes;
  }

  // Seal every list: one add (+ one sub) chunk per list bumps the chunk /
  // state-token sequence, and seal_chunk eagerly republishes the lookup
  // snapshot -- the parallel phase that follows serves entirely from the
  // new epoch's state.
  for (const auto& list : server_.list_names()) {
    server_.seal_chunk(list);
  }
  // A grown universe invalidates every cached "no listed prefix" verdict;
  // shards re-validate their entries lazily (url_cache_invalidations).
  if (universe_grew) ++universe_version_;
  ++metrics_.churn_events;
}

void Engine::stamp_universe(CachedUrl& entry) const {
  entry.universe_hits.clear();
  for (const auto prefix : entry.request.unique_prefixes()) {
    if (listed_universe_.count(prefix) > 0) {
      entry.universe_hits.push_back(prefix);
    }
  }
  entry.universe_version = universe_version_;
}

const Engine::CachedUrl& Engine::url_prefixes(Shard& shard,
                                              TrafficModel::VisitId visit) {
  const auto it = shard.url_cache.find(visit);
  if (it != shard.url_cache.end()) {
    ++shard.tick_metrics.url_cache_hits;
    if (it->second.universe_version != universe_version_) {
      // Stale: an epoch grew the listed universe since this entry was
      // stamped -- its "safe" verdict may have been revoked by the adds.
      stamp_universe(it->second);
      ++shard.tick_metrics.url_cache_invalidations;
    }
    return it->second;
  }
  ++shard.tick_metrics.url_cache_misses;
  if (config_.url_cache_entries > 0 &&
      shard.url_cache.size() >= config_.url_cache_entries) {
    shard.url_cache.clear();  // simple epoch eviction; hot URLs repopulate
  }

  // Build in place: the entry IS the LookupRequest the clients consume
  // (decompose + hash happen exactly once per distinct URL per shard). The
  // URL string exists only here, on a miss.
  CachedUrl& entry = shard.url_cache.try_emplace(visit).first->second;
  traffic_model_.url_of(visit, shard.site_cache, shard.url_scratch);
  entry.request.build(shard.url_scratch);
  stamp_universe(entry);
  return entry;
}

namespace {

/// Stack-first scratch for batch membership flags (std::vector<bool>
/// cannot back a std::span<bool>).
struct FlagScratch {
  bool inline_[64];
  std::unique_ptr<bool[]> heap;

  std::span<bool> get(std::size_t n) {
    if (n <= 64) return {inline_, n};
    heap = std::make_unique<bool[]>(n);
    return {heap.get(), n};
  }
};

}  // namespace

void Engine::dispatch(Shard& shard, UserState& user,
                      TrafficModel::VisitId visit) {
  ++shard.tick_metrics.lookups;
  const CachedUrl& entry = url_prefixes(shard, visit);
  if (!entry.request.valid()) return;

  // Prefilter: the client-equivalent local membership test, shared-hash
  // edition -- ONE batched store probe over the URL's candidate prefixes.
  // A miss is the client's "safe, nothing leaves the machine". Exact
  // stores only ever hold shipped prefixes, so testing the memoized
  // universe subset is outcome-identical and shrinks the batch to empty
  // for the (vast majority of) URLs with no listed prefix; v1 has no
  // store (everything ships) and Bloom stores may false-positive outside
  // the universe, so both test the full unique-prefix batch.
  const bool exact_store =
      universe_prefilter_ &&
      user.client->version() != sb::ProtocolVersion::kV1Lookup;
  const std::span<const crypto::Prefix32> candidates =
      exact_store ? std::span<const crypto::Prefix32>(entry.universe_hits)
                  : entry.request.unique_prefixes();
  bool any_hit = false;
  if (!candidates.empty()) {
    FlagScratch scratch;
    const std::span<bool> flags = scratch.get(candidates.size());
    user.client->local_contains_many(candidates, flags);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (flags[i]) {
        any_hit = true;
        break;
      }
    }
  }
  if (!any_hit) return;
  ++shard.tick_metrics.local_hit_lookups;

  if (config_.mitigation.dummy_requests) {
    ++shard.tick_metrics.mitigated_lookups;
    mitigated_dispatch(shard, user, entry);
    return;
  }

  ++shard.tick_metrics.dispatched_lookups;
  const auto result = user.client->lookup(entry.request);
  if (result.verdict == sb::Verdict::kMalicious) {
    ++shard.tick_metrics.malicious_verdicts;
  }
}

void Engine::mitigated_dispatch(Shard& shard, UserState& user,
                                const CachedUrl& entry) {
  // Firefox-style padded request (Section 8): the wire carries the real hit
  // prefixes plus deterministic dummies. This path models the padded wire
  // exchange directly; the client's full-hash cache and backoff are not
  // consulted (every mitigated hit produces one padded server query).
  const auto unique = entry.request.unique_prefixes();
  FlagScratch scratch;
  const std::span<bool> flags = scratch.get(unique.size());
  user.client->local_contains_many(unique, flags);
  std::vector<crypto::Prefix32> hits;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    if (flags[i]) hits.push_back(unique[i]);
  }
  const auto padded = dummy_policy_.pad_request(hits);
  const auto response =
      shard.transport->get_full_hashes_or_error(padded, user.cookie);
  if (!response) return;  // fail open, like the stock client

  const auto digests = entry.request.digests();
  const auto digest_prefixes = entry.request.prefixes();
  for (std::size_t i = 0; i < digests.size(); ++i) {
    const crypto::Prefix32 prefix = digest_prefixes[i];
    if (std::find(hits.begin(), hits.end(), prefix) == hits.end()) continue;
    const auto it = response->matches.find(prefix);
    if (it == response->matches.end()) continue;
    for (const auto& match : it->second) {
      if (match.digest == digests[i]) {
        ++shard.tick_metrics.malicious_verdicts;
        return;
      }
    }
  }
}

void Engine::tick_shard(Shard& shard) {
  // Route every query-log entry this thread produces into the shard's
  // buffer; the engine merges buffers in shard order after the barrier.
  const sb::Server::ScopedLogShard log_scope(shard.log_buffer);
  shard.tick_metrics = SimMetrics{};
  shard.tick_plan_ns = 0;
  shard.tick_lookup_ns = 0;
  shard.tick_resync_ns = 0;
  // Per-user spans cost three steady_clock reads when timing is on and
  // three predictable branches when it is off; everything recorded is
  // shard-confined, so timing cannot perturb any cross-shard state.
  const bool timed = obs_enabled_;

  if (churn_) {
    // Staggered client re-syncs for this shard's due users. Runs in the
    // parallel phase: the epoch already sealed and republished, updates
    // touch only shard-owned state + the server's mutex-guarded update
    // path, and none of it reaches the query log (see Shard::resync_slots).
    const std::uint64_t r0 = timed ? obs::now_ns() : 0;
    const std::uint64_t now = clock_.now();
    for (const std::size_t li : shard.resync_slots[tick_ % resync_cadence()]) {
      sb::ProtocolClient& client = *shard.users[li].client;
      if (client.version() == sb::ProtocolVersion::kV1Lookup) continue;
      // The client's own minimum-wait timer decides; it covers the server-
      // imposed wait (echoed into backoff on every success) and any error
      // backoff, so a poll here never produces a suppressed attempt.
      if (client.update_wait(now) > 0) continue;
      (void)client.update();
      ++shard.tick_metrics.churn_updates;
    }
    if (timed) {
      const std::uint64_t ns = obs::now_ns() - r0;
      shard.obs_phases.record(obs::Phase::kResync, ns);
      shard.tick_resync_ns = ns;
    }
  }

  for (auto& user : shard.users) {
    shard.visits.clear();
    const std::uint64_t t0 = timed ? obs::now_ns() : 0;
    shard.tick_metrics.target_visits += plan_user_tick(
        user, config_.traffic, traffic_model_, shard.visits);
    const std::uint64_t t1 = timed ? obs::now_ns() : 0;
    for (const TrafficModel::VisitId visit : shard.visits) {
      dispatch(shard, user, visit);
    }
    if (timed) {
      const std::uint64_t t2 = obs::now_ns();
      shard.obs_phases.record(obs::Phase::kPlan, t1 - t0);
      shard.obs_phases.record(obs::Phase::kLookup, t2 - t1);
      shard.tick_plan_ns += t1 - t0;
      shard.tick_lookup_ns += t2 - t1;
    }
  }
}

bool Engine::step() {
  if (tick_ >= config_.ticks) return false;

  // Serial-phase timing: one clock pair per phase per tick, recorded into
  // serial_profile_ and (for the optional series) this tick's sample.
  const bool timed = obs_enabled_;
  std::array<std::uint64_t, obs::kPhaseCount> tick_ns{};
  const auto timed_phase = [&](obs::Phase phase, auto&& body) {
    if (!timed) {
      body();
      return;
    }
    const std::uint64_t t0 = obs::now_ns();
    body();
    const std::uint64_t ns = obs::now_ns() - t0;
    serial_profile_.record(phase, ns);
    tick_ns[static_cast<std::size_t>(phase)] = ns;
  };

  if (churn_) {
    // Serial churn phase: epoch mutation (republishes the snapshot). The
    // staggered re-syncs happen inside the parallel shard tick below.
    if (tick_ > 0 && tick_ % config_.churn.epoch_ticks == 0) {
      timed_phase(obs::Phase::kChurnEpoch, [&] { apply_churn_epoch(); });
    }
  }

  // Parallel phase: shards tick concurrently; they share only immutable
  // state (traffic model, clock, the server's published snapshot).
  timed_phase(obs::Phase::kParallelTick, [&] {
    pool_->parallel_for(shards_.size(), [this](std::size_t s) {
      tick_shard(*shards_[s]);
    });
  });

  // Post-barrier merge, single-threaded: the canonical (tick, shard, seq)
  // log order and the counter reduction -- identical at any thread count.
  timed_phase(obs::Phase::kLogDrain, [&] {
    for (auto& shard : shards_) {
      server_.drain_log_buffer(shard->log_buffer);
      metrics_ += shard->tick_metrics;
    }
  });
  // Release the sync states no client holds any more. Pruning only here,
  // with every client at rest, keeps the build count a function of the
  // states clients hold, never of how the shards interleaved.
  sync_states_->prune();

  if (timed && config_.metrics_per_tick_series) {
    obs::TickSample sample;
    sample.tick = tick_;
    sample.phase_ns = tick_ns;
    // The parallel phases report CPU time summed over shards (wall time
    // at one thread; up to threads x wall when scaling perfectly).
    for (const auto& shard : shards_) {
      sample.phase_ns[static_cast<std::size_t>(obs::Phase::kPlan)] +=
          shard->tick_plan_ns;
      sample.phase_ns[static_cast<std::size_t>(obs::Phase::kLookup)] +=
          shard->tick_lookup_ns;
      sample.phase_ns[static_cast<std::size_t>(obs::Phase::kResync)] +=
          shard->tick_resync_ns;
    }
    obs_series_.push_back(sample);
  }

  clock_.advance(1);
  ++tick_;
  ++metrics_.ticks_run;
  return true;
}

obs::Snapshot Engine::obs_snapshot() const {
  obs::Snapshot snapshot;
  snapshot.enabled = obs_enabled_;
  snapshot.threads_used = pool_->size();
  snapshot.ticks = metrics_.ticks_run;

  snapshot.phases = serial_profile_;
  for (const auto& shard : shards_) {
    // Canonical shard order, like the log drain -- histogram merges are
    // exact integer sums, so the merged totals are order-independent
    // anyway, but the fixed order keeps exports reproducible by
    // construction.
    snapshot.phases.merge_from(shard->obs_phases);
    snapshot.transport.merge_from(shard->obs_transport);
  }
  snapshot.pool = pool_obs_;

  // Mirror SimMetrics under the same names report_to_json uses, so the
  // metrics.json counters section matches the scenario report.
  obs::MetricsRegistry& counters = snapshot.counters;
  counters.counter("ticks_run").value = metrics_.ticks_run;
  counters.counter("lookups").value = metrics_.lookups;
  counters.counter("local_hit_lookups").value = metrics_.local_hit_lookups;
  counters.counter("dispatched_lookups").value = metrics_.dispatched_lookups;
  counters.counter("mitigated_lookups").value = metrics_.mitigated_lookups;
  counters.counter("malicious_verdicts").value = metrics_.malicious_verdicts;
  counters.counter("target_visits").value = metrics_.target_visits;
  counters.counter("churn_events").value = metrics_.churn_events;
  counters.counter("churn_adds").value = metrics_.churn_adds;
  counters.counter("churn_removes").value = metrics_.churn_removes;
  counters.counter("injected_prefixes").value = metrics_.injected_prefixes;
  counters.counter("churn_updates").value = metrics_.churn_updates;
  counters.counter("url_cache_hits").value = metrics_.url_cache_hits;
  counters.counter("url_cache_misses").value = metrics_.url_cache_misses;
  counters.counter("url_cache_invalidations").value =
      metrics_.url_cache_invalidations;
  counters.counter("update_encode_cache_hits").value =
      server_.update_encode_cache_hits();
  counters.counter("client_state_builds").value = client_state_builds();
  counters.counter("site_cache_hits").value = site_cache_hits();
  counters.counter("site_cache_misses").value = site_cache_misses();

  snapshot.per_tick = obs_series_;
  return snapshot;
}

void Engine::run() {
  while (step()) {
  }
}

sb::ClientMetrics Engine::population_metrics() const {
  sb::ClientMetrics total;
  for (const auto& shard : shards_) {
    for (const auto& user : shard->users) {
      const sb::ClientMetrics& m = user.client->metrics();
      total.lookups += m.lookups;
      total.local_hits += m.local_hits;
      total.multi_prefix_lookups += m.multi_prefix_lookups;
      total.full_hash_requests += m.full_hash_requests;
      total.cache_answers += m.cache_answers;
      total.malicious_verdicts += m.malicious_verdicts;
      total.network_errors += m.network_errors;
      total.backoff_suppressed += m.backoff_suppressed;
      total.updates_attempted += m.updates_attempted;
      total.updates_failed += m.updates_failed;
    }
  }
  return total;
}

std::vector<sb::Cookie> Engine::interested_cookies() const {
  std::vector<sb::Cookie> cookies;
  for (const auto& shard : shards_) {
    for (const auto& user : shard->users) {
      if (user.interested) cookies.push_back(user.cookie);
    }
  }
  std::sort(cookies.begin(), cookies.end());
  return cookies;
}

}  // namespace sbp::sim
