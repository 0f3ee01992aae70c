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
// materializing the corpus. Each cached site is the generator's packed
// form (corpus::PackedSite: one byte buffer of page expressions plus
// per-page ends), so a hit copies one slice and allocates nothing. An
// entry may hold only a prefix of its site: the corpus generates page p
// without the pages after it (corpus/web_corpus.hpp), so a site's first
// miss generates pages 0..p of the requested page p. A later request at
// or past the cached prefix is a miss too, and regenerates the whole site
// into that entry, which from then on hits for every page. The LRU is
// flat: an open-addressed key table over an array of entries linked by
// uint32 indices. Either kind of miss generates into the cache's scratch
// site, which stays warm, and copies it into the entry's own buffers
// (those of the evicted or shorter site); a buffer left holding less than
// half its capacity is shrunk, so the cache's memory follows what it
// holds. A warm miss whose entry buffers fit the site allocates nothing.
//
// The model's only mutable state is a page-count memo: sample_page draws
// a site's page count once (WebCorpus::site_page_count re-seeds a site
// stream and makes a power-law draw) and reads it from a table of 16-bit
// relaxed atomics after that. The count is a pure function of the site
// index, so one instance is shared by every engine shard across threads;
// the mutable LRU lives in a per-shard SiteCache handed into each
// url_of().
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
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
    /// First requests of a site and requests past its cached prefix.
    [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
    /// Corpus pages the misses generated.
    [[nodiscard]] std::uint64_t pages_generated() const noexcept {
      return pages_generated_;
    }

   private:
    friend class TrafficModel;
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    struct Entry {
      std::size_t index = 0;
      corpus::PackedSite site;
      std::uint32_t newer = kNone;  ///< toward the most recently used
      std::uint32_t older = kNone;  ///< toward the least recently used
    };
    struct Slot {
      std::uint64_t key = 0;
      std::uint32_t entry = kNone;  ///< kNone: empty
    };

    /// The entry of site `index`, or kNone.
    [[nodiscard]] std::uint32_t find(std::size_t index) const noexcept;
    /// Makes entry `e` the most recently used.
    void touch(std::uint32_t e) noexcept;
    /// An entry keyed `index` (which must be absent), most recently used:
    /// a new one below capacity, else the least recently used, re-keyed.
    [[nodiscard]] std::uint32_t claim(std::size_t index);

    [[nodiscard]] std::size_t mask() const noexcept {
      return slots_.size() - 1;
    }
    /// Fibonacci hashing, as in UrlCache.
    [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    void place(std::uint64_t key, std::uint32_t e) noexcept;
    void erase(std::uint64_t key) noexcept;
    void unlink(std::uint32_t e) noexcept;
    void push_front(std::uint32_t e) noexcept;

    std::size_t capacity_;
    corpus::PackedSite scratch_;  ///< where a missed site is generated
    /// Grows on demand up to capacity_; entries are never removed, only
    /// re-keyed. Fewer than 2^31 (the corpus bound), so uint32 links fit.
    std::vector<Entry> entries_;
    std::vector<Slot> slots_;  ///< linear probing, load <= 1/2; or empty
    int shift_ = 64;
    std::uint32_t head_ = kNone;  ///< most recently used
    std::uint32_t tail_ = kNone;  ///< least recently used
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t pages_generated_ = 0;
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
  /// Site `index` through at least page `page`, from `cache` or generated
  /// into it.
  const corpus::PackedSite& site(std::size_t index, std::uint64_t page,
                                 SiteCache& cache) const;
  /// The corpus page whose URL is exactly `url`, if any.
  [[nodiscard]] std::optional<VisitId> corpus_page_id(
      const std::string& url) const;
  /// corpus_.site_page_count(index), read from the memo once drawn.
  [[nodiscard]] std::uint64_t page_count(std::size_t index) const;

  /// Counts at or above this are never memoized: they are drawn each time.
  static constexpr std::uint64_t kUnmemoized = 0xFFFF;

  corpus::WebCorpus corpus_;
  util::PowerLawSampler rank_sampler_;
  /// One page count per corpus site, 0 until a draw first needs it. The
  /// count is a pure function of the site index, so racing fills store the
  /// same value; relaxed atomics make the race benign.
  std::unique_ptr<std::atomic<std::uint16_t>[]> page_counts_;
  std::size_t capacity_;
  std::vector<std::string> target_urls_;
  std::vector<VisitId> target_ids_;
};

}  // namespace sbp::sim
