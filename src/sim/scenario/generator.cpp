#include "sim/scenario/generator.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "util/json/json.hpp"

namespace sbp::sim {

namespace {

/// Uniform integer in [lo, hi] (inclusive). lo <= hi required.
std::uint64_t draw_range(util::Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + rng.next_below(hi - lo + 1);
}

/// Uniform double in [lo, hi).
double draw_double(util::Rng& rng, double lo, double hi) {
  return lo + rng.next_double() * (hi - lo);
}

template <typename T>
T pick(util::Rng& rng, std::initializer_list<T> options) {
  auto it = options.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(
                       rng.next_below(options.size())));
  return *it;
}

sb::ProtocolVersion draw_protocol(util::Rng& rng, bool allow_v1) {
  // v3 and v4 dominate (they carry the equivalence contract); v1 keeps
  // the clear-URL path and its distinct log shape in the mix.
  const std::uint64_t roll = rng.next_below(allow_v1 ? 5 : 4);
  if (roll < 2) return sb::ProtocolVersion::kV3Chunked;
  if (roll < 4) return sb::ProtocolVersion::kV4Sliced;
  return sb::ProtocolVersion::kV1Lookup;
}

std::vector<std::string> draw_lists(util::Rng& rng, sb::Provider provider) {
  // Provider-styled list names, 1-3 of them (multi-list = the Yandex
  // configuration the paper's Table 3 measures).
  const char* const* pool;
  static const char* const kGoogle[] = {"goog-malware-shavar",
                                        "goog-phish-shavar",
                                        "goog-unwanted-shavar"};
  static const char* const kYandex[] = {"ydx-malware-shavar",
                                        "ydx-phish-shavar",
                                        "ydx-porno-hosts-top"};
  pool = provider == sb::Provider::kYandex ? kYandex : kGoogle;
  std::vector<std::string> lists;
  const std::size_t count = static_cast<std::size_t>(draw_range(rng, 1, 3));
  for (std::size_t i = 0; i < count; ++i) lists.emplace_back(pool[i]);
  return lists;
}

}  // namespace

std::size_t population_bloom_bits(std::size_t max_entries) {
  return std::max<std::size_t>(4096, 32 * max_entries);
}

ScenarioGenerator::ScenarioGenerator(std::uint64_t seed,
                                     GeneratorLimits limits)
    : seed_(seed), limits_(limits), rng_(seed) {}

Scenario ScenarioGenerator::next() {
  util::Rng& rng = rng_;
  Scenario scenario;
  scenario.name = "fuzz-" + util::json::hex_u64(seed_) + "-" +
                  std::to_string(iteration_);
  scenario.description =
      "generated by ScenarioGenerator (sbsim fuzz), seed " +
      util::json::hex_u64(seed_) + " iteration " +
      std::to_string(iteration_);
  ++iteration_;

  SimConfig& config = scenario.config;

  // ----- population shape ------------------------------------------------
  config.num_users = static_cast<std::size_t>(
      draw_range(rng, 8, std::max<std::size_t>(8, limits_.max_users)));
  config.ticks = draw_range(rng, 6, std::max<std::uint64_t>(6, limits_.max_ticks));
  config.num_shards = pick(rng, {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{4},
                                 std::size_t{8}});
  // num_threads is outside the determinism contract; the invariant layer
  // overrides it per leg, but the drawn value is what a bare `sbsim run`
  // of a written repro uses.
  config.num_threads = pick(rng, {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}});
  config.seed = rng.next();  // full range: exercises the "0x..." spelling
  config.provider = rng.next_bool(0.5) ? sb::Provider::kGoogle
                                       : sb::Provider::kYandex;

  // ----- corpus ----------------------------------------------------------
  config.corpus.num_hosts = static_cast<std::size_t>(
      draw_range(rng, 60, std::max<std::size_t>(60, limits_.max_hosts)));
  config.corpus.seed = rng.next();
  config.corpus.alpha = draw_double(rng, 1.1, 2.5);
  config.corpus.max_pages = draw_range(rng, 20, 120);
  config.corpus.min_pages = draw_range(rng, 1, 3);
  config.corpus.single_page_fraction = draw_double(rng, 0.0, 0.9);
  config.corpus.subdomain_probability = draw_double(rng, 0.0, 0.5);
  config.corpus.query_probability = draw_double(rng, 0.0, 0.5);
  config.corpus.directory_page_probability = draw_double(rng, 0.0, 0.5);

  // ----- traffic ---------------------------------------------------------
  TrafficConfig& traffic = config.traffic;
  traffic.site_popularity_alpha = draw_double(rng, 1.05, 2.8);
  traffic.revisit_probability = draw_double(rng, 0.0, 0.8);
  traffic.revisit_window = static_cast<std::size_t>(draw_range(rng, 1, 16));
  traffic.session_start_probability = draw_double(rng, 0.02, 0.3);
  traffic.session_continue_probability = draw_double(rng, 0.0, 0.95);
  traffic.lookups_per_active_tick =
      static_cast<std::size_t>(draw_range(rng, 1, 3));
  if (rng.next_bool(0.3)) {
    // Interest-group traffic (the Section 6.3 tracking shape).
    const std::size_t targets = static_cast<std::size_t>(draw_range(rng, 1, 2));
    for (std::size_t t = 0; t < targets; ++t) {
      traffic.target_urls.push_back(
          "http://target-" + std::to_string(t) + ".example/landing");
    }
    traffic.interested_fraction = draw_double(rng, 0.01, 0.2);
    traffic.target_visit_probability = draw_double(rng, 0.05, 0.6);
  }

  // ----- blacklist at t=0 ------------------------------------------------
  BlacklistConfig& blacklist = config.blacklist;
  blacklist.lists = draw_lists(rng, config.provider);
  blacklist.page_fraction = draw_double(rng, 0.0, 0.08);
  blacklist.site_fraction = draw_double(rng, 0.0, 0.02);
  blacklist.max_entries = static_cast<std::size_t>(draw_range(
      rng, 64, std::max<std::size_t>(64, limits_.max_blacklist_entries)));
  blacklist.orphan_prefixes = static_cast<std::size_t>(draw_range(rng, 0, 8));

  // ----- protocol generations & store ------------------------------------
  config.protocol = draw_protocol(rng, /*allow_v1=*/true);
  if (rng.next_bool(0.5)) {
    config.mix_fraction = draw_double(rng, 0.1, 0.5);
    config.mix_protocol = draw_protocol(rng, /*allow_v1=*/true);
  }
  const std::uint64_t store_roll = rng.next_below(10);
  if (store_roll < 4) {
    config.store_kind = storage::StoreKind::kDeltaCoded;
  } else if (store_roll < 7) {
    config.store_kind = storage::StoreKind::kRawSorted;
  } else {
    config.store_kind = storage::StoreKind::kBloom;
  }
  config.bloom_bits = config.store_kind == storage::StoreKind::kBloom
                          ? population_bloom_bits(blacklist.max_entries)
                          : 0;
  config.full_hash_ttl = rng.next_bool(0.4) ? draw_range(rng, 5, 40) : 0;

  // ----- churn -----------------------------------------------------------
  if (rng.next_bool(0.55)) {
    ChurnConfig& churn = config.churn;
    churn.epoch_ticks = draw_range(rng, 3, 10);
    churn.add_rate = draw_double(rng, 0.0, 0.08);
    churn.remove_rate = draw_double(rng, 0.0, 0.08);
    churn.max_epoch_adds = static_cast<std::size_t>(draw_range(rng, 16, 256));
    churn.minimum_wait_ticks =
        rng.next_bool(0.5)
            ? 0  // default: one epoch
            : draw_range(rng, std::max<std::uint64_t>(1, churn.epoch_ticks / 2),
                         2 * churn.epoch_ticks);
    const std::size_t injections =
        static_cast<std::size_t>(draw_range(rng, 0, 2));
    for (std::size_t i = 0; i < injections; ++i) {
      PrefixInjection injection;
      injection.epoch = draw_range(rng, 1, 3);
      // Empty list = the first configured one; name a concrete list half
      // the time to cover both spellings.
      if (rng.next_bool(0.5)) {
        injection.list = blacklist.lists[static_cast<std::size_t>(
            rng.next_below(blacklist.lists.size()))];
      }
      // Injection i lists target URL i's host when that target exists, so
      // interested users' cached target URLs go stale and re-stamp.
      injection.expression =
          (i < config.traffic.target_urls.size() ? "target-" : "victim-") +
          std::to_string(i) + ".example/";
      config.churn.injections.push_back(std::move(injection));
    }
  }

  // ----- mitigation ------------------------------------------------------
  if (rng.next_bool(0.25)) {
    config.mitigation.dummy_requests = true;
    config.mitigation.dummies_per_prefix =
        static_cast<unsigned>(draw_range(rng, 1, 6));
  }

  // ----- engine bounds ---------------------------------------------------
  config.url_cache_entries = static_cast<std::size_t>(
      pick(rng, {std::uint64_t{64}, std::uint64_t{256}, std::uint64_t{1024},
                 std::uint64_t{1} << 16}));
  config.site_cache_entries =
      static_cast<std::size_t>(draw_range(rng, 16, 128));
  // Profiling stays off in the emitted scenario; the metrics-transparency
  // invariant toggles it and expects no observable change.
  config.collect_metrics = false;
  config.metrics_per_tick_series = false;

  return scenario;
}

}  // namespace sbp::sim
