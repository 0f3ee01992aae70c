// Power-law browsing traffic over a synthetic web (src/sim).
//
// Users do not browse uniformly: a handful of sites absorb most visits
// (rank-popularity follows a power law), individual users revisit what they
// just saw, and browsing happens in bursts. The TrafficModel supplies the
// first ingredient -- drawing a fresh (site, page) pair with power-law site
// popularity from a corpus::WebCorpus -- while revisit locality and session
// burstiness live in UserState (sim/user.hpp), which owns per-user memory.
//
// A visit is planned as a 64-bit id, not a URL string: a corpus page is
// `site << 32 | page` and an interest-target URL is `kTargetVisit | i`.
// Every URL string has exactly one id, so anything keyed by id (the
// engine's URL cache) stays 1:1 with URL strings. Drawing an id needs only
// the site's page count, which the corpus derives without generating the
// site; the string itself is built by url_of() where it is consumed.
//
// url_of() generates sites lazily into a bounded LRU: popularity is
// head-heavy, so a small cache serves almost every lookup without ever
// materializing the corpus. The model itself is immutable after
// construction (corpus generation is const and stateless), so one instance
// is shared by every engine shard across threads; the mutable LRU lives in
// a per-shard SiteCache handed into each url_of().
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpus/web_corpus.hpp"
#include "sim/config.hpp"
#include "util/power_law.hpp"
#include "util/rng.hpp"

namespace sbp::sim {

class TrafficModel {
 public:
  /// A planned visit: `site << 32 | page`, or `kTargetVisit | i` for
  /// TrafficConfig::target_urls[i].
  using VisitId = std::uint64_t;
  static constexpr VisitId kTargetVisit = VisitId{1} << 63;

  /// Per-shard mutable LRU of generated sites. Cache state only affects
  /// speed, never results: a miss regenerates the site deterministically.
  class SiteCache {
   public:
    explicit SiteCache(std::size_t capacity)
        : capacity_(std::max<std::size_t>(1, capacity)) {}

    [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
    [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

   private:
    friend class TrafficModel;
    struct Entry {
      std::size_t index;
      corpus::Site site;
    };

    std::size_t capacity_;
    std::list<Entry> lru_;  ///< most recently used first
    std::unordered_map<std::size_t, std::list<Entry>::iterator> by_index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
  };

  /// Throws std::invalid_argument if the corpus does not fit the id
  /// layout (2^31 sites, 2^32 pages per site).
  TrafficModel(const TrafficConfig& traffic, corpus::CorpusConfig corpus,
               std::size_t site_cache_entries);

  /// A fresh cache sized per the construction-time configuration.
  [[nodiscard]] SiteCache make_cache() const { return SiteCache(capacity_); }

  /// Draws a fresh page: site by power-law popularity (site index ==
  /// rank - 1), page uniformly within the site. Generates no site.
  [[nodiscard]] VisitId sample_page(util::Rng& rng) const;

  /// The id of TrafficConfig::target_urls[i].
  [[nodiscard]] VisitId target_visit(std::size_t i) const {
    return target_ids_[i];
  }

  /// Writes the URL of `id` into `out` (cleared first, buffer reused),
  /// generating its site through `cache` if needed.
  void url_of(VisitId id, SiteCache& cache, std::string& out) const;

  [[nodiscard]] const corpus::WebCorpus& corpus() const noexcept {
    return corpus_;
  }

 private:
  const corpus::Site& site(std::size_t index, SiteCache& cache) const;
  /// The corpus page whose URL is exactly `url`, if any.
  [[nodiscard]] std::optional<VisitId> corpus_page_id(
      const std::string& url) const;

  corpus::WebCorpus corpus_;
  util::PowerLawSampler rank_sampler_;
  std::size_t capacity_;
  std::vector<std::string> target_urls_;
  std::vector<VisitId> target_ids_;
};

}  // namespace sbp::sim
