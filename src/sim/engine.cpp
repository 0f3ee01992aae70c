#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <thread>
#include <utility>

#include "url/decompose.hpp"

namespace sbp::sim {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// Stable per-purpose seed derivation (same scheme as the corpus).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ salt;
  return util::splitmix64(state);
}

std::size_t shard_count(const SimConfig& config) {
  return std::max<std::size_t>(1, config.num_shards);
}

/// site_cache_entries (at least 1) per shard, saturating.
std::size_t site_table_capacity(const SimConfig& config) {
  const std::size_t entries =
      std::max<std::size_t>(1, config.site_cache_entries);
  const std::size_t shards = shard_count(config);
  return entries > SIZE_MAX / shards ? SIZE_MAX : entries * shards;
}

std::size_t resolve_threads(std::size_t requested, std::size_t num_shards) {
  if (requested == 0) {
    requested = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::max<std::size_t>(1, std::min(requested, num_shards));
}

}  // namespace

Engine::Engine(SimConfig config)
    : setup_watch_(config.collect_metrics),
      config_(std::move(config)),
      server_(config_.provider),
      traffic_model_(config_.traffic, config_.corpus),
      site_table_(site_table_capacity(config_), shard_count(config_)),
      dummy_policy_(config_.mitigation.dummies_per_prefix) {
  obs_enabled_ = config_.collect_metrics;  // before shards are built
  server_.set_lock_metrics(obs_enabled_);
  sync_states_->set_lock_metrics(obs_enabled_);
  for (const auto& list : config_.blacklist.lists) {
    server_.create_list(list);
  }
  if (config_.churn.epoch_ticks > 0) {
    churn_ = std::make_unique<ChurnSchedule>(
        config_.churn, config_.blacklist.lists,
        derive_seed(config_.seed, 0xC4012BADC4012BADULL));
    // The server dictates the fleet's update cadence (v3 next_update_after
    // / v4 minimum_wait); it gates the initial sync too, so the first
    // mid-run re-sync of any user lands in [cadence, 2*cadence).
    server_.set_minimum_wait(resync_cadence());
  }
  // With metrics on, each setup step is timed into setup_ (server_setup,
  // the churn schedule and the pool fall in the constructor's total only).
  const auto timed_step = [this](std::uint64_t& ns, auto&& body) {
    obs::Stopwatch watch(obs_enabled_);
    body();
    ns = watch.lap();
  };
  timed_step(setup_.seed_blacklist_ns, [&] { seed_blacklist(); });
  metrics_.corpus_pages_generated = seed_pages_generated_;
  if (config_.server_setup) config_.server_setup(server_);
  timed_step(setup_.seal_universe_ns, [&] {
    for (const auto& list : server_.list_names()) {
      server_.seal_chunk(list);
    }
    build_listed_universe();
  });
  timed_step(setup_.build_population_ns, [&] { build_population(); });
  pool_ = std::make_unique<ThreadPool>(
      resolve_threads(config_.num_threads, shards_.size()));
  if (obs_enabled_) {
    pool_->set_obs(&pool_obs_);
    setup_.total_ns = setup_watch_.lap();
  }
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
                                        std::string_view expression) {
    server_.add_expression(list, expression);
    // Seed entries enter the churn schedule's live FIFO so later epochs
    // can retire them (the aging that decays day-zero crawl knowledge).
    if (churn_) churn_->register_seed_expression(list, expression);
  };

  std::vector<std::uint32_t> page_indices;
  corpus::PackedSite site;  // reused: each site's prefix through its last pick
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

    // Partial Fisher-Yates over the page count alone, so the picks need no
    // generated page; then the site is generated only through the last
    // page picked.
    page_indices.resize(count);
    std::iota(page_indices.begin(), page_indices.end(), 0);
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::size_t j =
          i + rng.next_below(page_indices.size() - i);
      std::swap(page_indices[i], page_indices[j]);
    }
    const auto picked = std::span(page_indices).first(k);
    corpus.site_into(s, site,
                     std::uint64_t{*std::ranges::max_element(picked)} + 1);
    seed_pages_generated_ += site.size();
    for (const std::uint32_t page : picked) {
      blacklist_expression(next_list(), site.expression(page));
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
  const std::size_t num_shards = shard_count(config_);
  shards_.clear();
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::unique_ptr<sb::Transport> transport =
        config_.transport_factory
            ? config_.transport_factory(s, clock_)
            : std::make_unique<sb::InProcessTransport>(
                  server_, clock_, /*round_trip_ticks=*/0);
    shards_.push_back(std::make_unique<Shard>(std::move(transport),
                                              site_table_.lane(s),
                                              config_.url_cache_entries,
                                              obs_enabled_));
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
    // The universe prefilter is legal only for exact stores: Bloom false
    // positives must keep producing wire traffic, and v1 has no store.
    user.exact_store =
        config_.store_kind != storage::StoreKind::kBloom &&
        user.client->version() != sb::ProtocolVersion::kV1Lookup;
    for (const auto& list : config_.blacklist.lists) {
      user.client->subscribe(list);
    }
    (void)user.client->update();

    shard.users.push_back(std::move(user));
  }
  publish_shared_state();
}

UserState& Engine::user(std::size_t index) {
  return shards_[index % shards_.size()]->users[index / shards_.size()];
}

std::size_t Engine::num_users() const noexcept { return config_.num_users; }

sb::TransportStats Engine::transport_stats() const {
  sb::TransportStats total;
  for (const auto& shard : shards_) total += shard->transport->stats();
  return total;
}

std::uint64_t Engine::update_decode_reuses() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (const auto* frames =
            dynamic_cast<const sb::FrameTransport*>(shard->transport.get())) {
      total += frames->update_decode_reuses();
    }
  }
  return total;
}

void Engine::apply_churn_epoch() {
  const ChurnSchedule::EpochPlan plan = churn_->plan_epoch(++epoch_count_);
  bool universe_grew = false;
  const auto publish = [&](const std::string& list,
                           const std::string& expression) {
    server_.add_expression(list, expression);
    universe_grew |= listed_universe_.insert(crypto::prefix32_of(expression));
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
  // state-token sequence, so the parallel phase that follows serves the
  // new epoch's state with nothing left to seal.
  for (const auto& list : server_.list_names()) {
    server_.seal_chunk(list);
  }
  // A grown universe invalidates every cached "no listed prefix" verdict;
  // shards re-validate their entries lazily (url_cache_invalidations).
  if (universe_grew) ++universe_version_;
  ++metrics_.churn_events;
}

void Engine::stamp_universe(UrlCache::Stamp& stamp,
                            const sb::LookupRequest& request) const {
  const auto unique = request.unique_prefixes();
  stamp.hits = 0;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    if (listed_universe_.has(unique[i])) {
      stamp.hits |= std::uint32_t{1} << i;
    }
  }
  stamp.version = universe_version_;
}

UrlCache::Ref Engine::url_prefixes(Shard& shard,
                                   TrafficModel::VisitId visit) {
  if (const UrlCache::Ref hit = shard.url_cache.find(visit)) {
    ++shard.tick_metrics.url_cache_hits;
    if (hit.stamp->version != universe_version_) {
      // Stale: an epoch grew the listed universe since this slot was
      // stamped -- its "safe" verdict may have been revoked by the adds.
      stamp_universe(*hit.stamp, shard.url_cache.entry(hit.entry).request);
      ++shard.tick_metrics.url_cache_invalidations;
    }
    return hit;
  }
  ++shard.tick_metrics.url_cache_misses;

  // Build in place: the entry IS the LookupRequest the clients consume
  // (decompose + hash happen exactly once per distinct URL per shard). The
  // URL string exists only here, on a miss. With metrics on, the miss is
  // split into its site step (URL from the site table) and its url_build
  // step; both nest inside the shard-tick's lookup span.
  const UrlCache::Ref ref = shard.url_cache.insert(visit);
  sb::LookupRequest& request = shard.url_cache.entry(ref.entry).request;
  obs::Stopwatch watch(obs_enabled_);
  traffic_model_.url_of(visit, shard.sites, shard.url_scratch);
  watch.record_lap(shard.obs_phases, obs::Phase::kSite);
  request.build(shard.url_scratch);
  watch.record_lap(shard.obs_phases, obs::Phase::kUrlBuild);
  stamp_universe(*ref.stamp, request);
  return ref;
}

void Engine::dispatch(Shard& shard, UserState& user,
                      TrafficModel::VisitId visit) {
  ++shard.tick_metrics.lookups;
  const UrlCache::Ref ref = url_prefixes(shard, visit);
  // An exact store only ever holds shipped prefixes, so a URL whose stamp
  // lists none is the client's "safe, nothing leaves the machine" -- read
  // from the slot alone, touching neither the entry nor the client. An
  // invalid request has no unique prefixes, so its stamp lists none either.
  if (user.exact_store && ref.stamp->hits == 0) return;
  const UrlCache::Entry& entry = shard.url_cache.entry(ref.entry);
  if (!entry.request.valid()) return;

  // Prefilter: the client-equivalent local membership test, shared-hash
  // edition -- ONE batched store probe over the URL's candidate prefixes.
  // For an exact store, testing the stamped universe subset is
  // outcome-identical; v1 has no store (everything ships) and Bloom stores
  // may false-positive outside the universe, so both test the full
  // unique-prefix batch. A request holds at most url::kMaxDecompositions
  // prefixes, so the batch and its flags live on the stack.
  const auto unique = entry.request.unique_prefixes();
  std::array<crypto::Prefix32, url::kMaxDecompositions> listed;
  std::span<const crypto::Prefix32> candidates = unique;
  if (user.exact_store) {
    std::size_t n = 0;
    for (std::uint32_t bits = ref.stamp->hits; bits != 0;
         bits &= bits - 1) {
      listed[n++] = unique[static_cast<std::size_t>(std::countr_zero(bits))];
    }
    candidates = std::span<const crypto::Prefix32>(listed.data(), n);
  }
  if (candidates.empty()) return;
  std::array<bool, url::kMaxDecompositions> flags;
  const std::span<bool> hit_flags(flags.data(), candidates.size());
  user.client->local_contains_many(candidates, hit_flags);
  if (std::find(hit_flags.begin(), hit_flags.end(), true) ==
      hit_flags.end()) {
    return;
  }
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
                                const UrlCache::Entry& entry) {
  // Firefox-style padded request (Section 8): the wire carries the real hit
  // prefixes plus deterministic dummies. This path models the padded wire
  // exchange directly; the client's full-hash cache and backoff are not
  // consulted (every mitigated hit produces one padded server query).
  const auto unique = entry.request.unique_prefixes();
  std::array<bool, url::kMaxDecompositions> flags;
  user.client->local_contains_many(
      unique, std::span<bool>(flags.data(), unique.size()));
  std::vector<crypto::Prefix32>& hits = shard.mitigation_hits;
  hits.clear();
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

void Engine::publish_shared_state() {
  // Release the sync states no client holds any more. Pruning only here,
  // with every client at rest, keeps the build count a function of the
  // states clients hold, never of how the shards interleaved. Both caches
  // publish what this phase built, so the next parallel phase reads it
  // with no lock -- and which calls take a lock depends only on this
  // schedule, never on the thread count. The site table merges the
  // shards' lanes in shard order, so what it holds depends only on each
  // shard's lookups.
  sync_states_->prune();
  server_.publish_update_cache();
  site_table_.publish();
}

void Engine::resync_due(Shard& shard, bool lead_only) {
  obs::Stopwatch watch(obs_enabled_);
  const std::uint64_t now = clock_.now();
  const std::vector<std::size_t>& due =
      shard.resync_slots[tick_ % resync_cadence()];
  while (shard.resync_next < due.size()) {
    sb::ProtocolClient& client = *shard.users[due[shard.resync_next++]].client;
    if (client.version() == sb::ProtocolVersion::kV1Lookup) continue;
    // The client's own minimum-wait timer decides; it covers the server-
    // imposed wait (echoed into backoff on every success) and any error
    // backoff, so a poll here never produces a suppressed attempt.
    if (client.update_wait(now) > 0) continue;
    (void)client.update();
    ++shard.tick_metrics.churn_updates;
    if (lead_only) break;
  }
  watch.record_lap(shard.obs_phases, obs::Phase::kResync);
}

void Engine::lead_resyncs() {
  // The epoch dropped the server's encode cache, so every re-sync of this
  // tick would miss the published tables and queue on the update locks.
  // Each shard's first due update runs here instead, on the engine thread,
  // and what those updates encoded and built is published: the rest of
  // the tick's re-syncs read it with no lock. Each shard still re-syncs
  // its users in slot order, and re-syncs log nothing, so no output moves.
  for (auto& shard : shards_) resync_due(*shard, /*lead_only=*/true);
  sync_states_->publish();
  server_.publish_update_cache();
}

void Engine::tick_shard(Shard& shard) {
  // Route every query-log entry this thread produces into the shard's
  // buffer; the engine merges buffers in shard order after the barrier.
  const sb::Server::ScopedLogShard log_scope(shard.log_buffer);

  // Staggered client re-syncs for this shard's due users (those the epoch
  // did not lead). Runs in the parallel phase: the epoch already sealed
  // every list, updates touch only shard-owned state + the server's
  // update path and the shared sync-state cache (lock-free hits, locked
  // misses), and none of it reaches the query log (see
  // Shard::resync_slots).
  if (churn_) resync_due(shard, /*lead_only=*/false);

  // Two passes, one plan and one lookup span each. Planning reads only the
  // user and the immutable traffic model, and dispatch writes nothing
  // planning reads, so planning every user first changes no output.
  obs::Stopwatch watch(obs_enabled_);
  shard.visits.clear();
  shard.visit_ends.clear();
  for (auto& user : shard.users) {
    shard.tick_metrics.target_visits += plan_user_tick(
        user, config_.traffic, traffic_model_, shard.visits);
    shard.visit_ends.push_back(shard.visits.size());
  }
  watch.record_lap(shard.obs_phases, obs::Phase::kPlan);
  if (churn_) {
    // Only churn grows the universe, so only then can a slot be stale. A
    // stale hit re-stamps from its entry's request: a load of the entry,
    // then of the request's buffer. Starting both for every stale visit of
    // the shard-tick here, where no load waits on another, overlaps the
    // cache misses that dispatch would otherwise take one at a time. The
    // prefetch stays in this function: GCC deletes calls to a helper
    // whose only effect is a prefetch.
    for (const TrafficModel::VisitId visit : shard.visits) {
      if (const sb::LookupRequest* request =
              shard.url_cache.stale_request(visit, universe_version_)) {
        __builtin_prefetch(request->unique_prefixes().data());
      }
    }
  }
  std::size_t next = 0;
  for (std::size_t u = 0; u < shard.users.size(); ++u) {
    for (; next < shard.visit_ends[u]; ++next) {
      dispatch(shard, shard.users[u], shard.visits[next]);
    }
  }
  watch.record_lap(shard.obs_phases, obs::Phase::kLookup);
}

bool Engine::step() {
  if (tick_ >= config_.ticks) return false;

  // Serial-phase timing: one span per phase per tick, recorded into
  // serial_profile_.
  const auto timed_phase = [&](obs::Phase phase, auto&& body) {
    obs::Stopwatch watch(obs_enabled_);
    body();
    watch.record_lap(serial_profile_, phase);
  };

  for (auto& shard : shards_) {
    shard->tick_metrics = SimMetrics{};
    shard->resync_next = 0;
  }
  if (churn_) {
    // Serial churn phase: epoch mutation (sealed before any worker reads
    // the lists) and the re-syncs it leads. The other staggered re-syncs happen inside
    // the parallel shard tick below.
    if (tick_ > 0 && tick_ % config_.churn.epoch_ticks == 0) {
      timed_phase(obs::Phase::kChurnEpoch, [&] {
        apply_churn_epoch();
        lead_resyncs();
      });
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
  publish_shared_state();
  metrics_.client_state_builds = sync_states_->builds();
  metrics_.site_cache_hits = site_table_.hits();
  metrics_.site_cache_misses = site_table_.misses();
  metrics_.corpus_pages_generated =
      seed_pages_generated_ + site_table_.pages_generated();

  if (obs_enabled_ && config_.metrics_per_tick_series) {
    // This tick's sample is how far the summed phase totals (the serial
    // profile plus every shard's) moved during the tick. The parallel
    // phases thus report CPU time summed over shards (wall time at one
    // thread; up to threads x wall when scaling perfectly).
    obs::TickSample sample;
    sample.tick = tick_;
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      const auto phase = static_cast<obs::Phase>(p);
      std::uint64_t total = serial_profile_.stats(phase).total_ns;
      for (const auto& shard : shards_) {
        total += shard->obs_phases.stats(phase).total_ns;
      }
      sample.phase_ns[p] = total - series_totals_[p];
      series_totals_[p] = total;
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
  if (obs_enabled_) snapshot.setup = setup_;

  // SimMetrics under the same names report_to_json uses, so the
  // metrics.json counters section matches the scenario report.
  util::append_counters(snapshot.counters, metrics_);
  snapshot.counters.emplace_back("update_encode_cache_hits",
                                 server_.update_encode_cache_hits());
  snapshot.counters.emplace_back("update_decode_reuses",
                                 update_decode_reuses());
  const obs::LockStats update_serve = server_.update_serve_lock();
  const obs::LockStats sync_state = sync_states_->lock_stats();
  snapshot.counters.emplace_back("update_serve_locked",
                                 update_serve.acquisitions);
  snapshot.counters.emplace_back("sync_state_locked",
                                 sync_state.acquisitions);
  snapshot.locks = {{"update_serve", update_serve},
                    {"sync_state", sync_state}};

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
      total += user.client->metrics();
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
