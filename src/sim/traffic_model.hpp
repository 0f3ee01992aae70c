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
// url_of() generates sites lazily into one engine-wide SiteTable:
// popularity is head-heavy, so a table of a few thousand sites serves
// almost every lookup without ever materializing the corpus. Each held
// site is the generator's packed form (corpus::PackedSite: one byte buffer
// of page expressions plus per-page ends), so a hit copies one slice and
// allocates nothing. A site may be held only as a prefix: the corpus
// generates page p without the pages after it (corpus/web_corpus.hpp), so
// a site's first miss generates pages 0..p of the requested page p, and a
// later request at or past the held prefix misses and generates the whole
// site, which from then on hits for every page.
//
// The table follows the engine's publish-at-the-barrier pattern (see
// sb::PublishedTable), without its locked build. During a tick each shard
// reads the published sites with no lock through its own SiteTable::Lane,
// and generates what it misses into the lane's pending list; nothing
// shared is written. SiteTable::publish() runs at the tick barrier, on one
// thread: it sets the second-chance (CLOCK) referenced bit of every
// published site a lane used, then merges the lanes' pending sites in lane
// order -- a longer copy replaces a shorter one, a new site evicts by
// second chance once the table is full. So which sites the table holds,
// and every counter, depends on the lanes' lookups alone, never on how the
// threads interleaved. Evicted and replaced buffers go back to the lane as
// spare pending buffers, so a warm miss whose spare fits allocates nothing.
//
// The model's own mutable state is a page-count memo: sample_page draws
// a site's page count once (WebCorpus::site_page_count re-seeds a site
// stream and makes a power-law draw) and reads it from a table of 16-bit
// relaxed atomics after that. The count is a pure function of the site
// index, so one instance is shared by every engine shard across threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpus/web_corpus.hpp"
#include "sim/config.hpp"
#include "util/power_law.hpp"
#include "util/rng.hpp"

namespace sbp::sim {

/// Generated sites shared by every engine shard: read through per-shard
/// lanes during a tick, changed only by publish() between ticks. What it
/// holds affects speed only, never which URL an id names.
class SiteTable {
 public:
  /// One shard's view: this tick's generated sites, the published entries
  /// it used, and its counters. Touched only by the thread ticking the
  /// shard, and by publish().
  class alignas(64) Lane {
   public:
    /// Site `index` through at least page `page`: this tick's pending copy,
    /// else the published one, else generated into pending -- pages
    /// 0..page, or the whole site when a shorter prefix is held.
    const corpus::PackedSite& site(const corpus::WebCorpus& corpus,
                                   std::size_t index, std::uint64_t page);

   private:
    friend class SiteTable;
    struct Pending {
      std::size_t index = 0;
      corpus::PackedSite site;
    };
    explicit Lane(const SiteTable& table) : table_(&table) {}

    const SiteTable* table_;
    /// The first live_ are this tick's sites; the rest are spare buffers.
    std::vector<Pending> pending_;
    std::size_t live_ = 0;
    std::vector<std::uint32_t> touched_;  ///< entries used this tick
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t pages_generated_ = 0;
  };

  /// Holds at most `capacity` sites (at least 1), read through `lanes`
  /// lanes.
  SiteTable(std::size_t capacity, std::size_t lanes);
  SiteTable(const SiteTable&) = delete;
  SiteTable& operator=(const SiteTable&) = delete;

  [[nodiscard]] Lane& lane(std::size_t i) { return lanes_[i]; }

  /// Merges every lane into the table, as this file's header describes.
  /// Only while no lane is in use.
  void publish();

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// The lanes' lookups as of the last publish(): hits, misses (first
  /// requests of a site and requests past its held prefix) and the corpus
  /// pages the misses generated.
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t pages_generated() const noexcept {
    return pages_generated_;
  }

 private:
  struct Entry {
    std::size_t index = 0;
    corpus::PackedSite site;
    bool referenced = false;  ///< used since the hand last passed
  };
  /// Moves `pending` into the table, leaving a spare buffer in its place.
  void merge(Lane::Pending& pending);

  std::size_t capacity_;
  std::vector<Lane> lanes_;
  std::vector<Entry> entries_;  ///< grows to capacity_, then re-keyed
  std::unordered_map<std::size_t, std::uint32_t> slots_;  ///< index -> entry
  std::size_t hand_ = 0;  ///< the CLOCK hand: an entry index
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t pages_generated_ = 0;
};

class TrafficModel {
 public:
  /// A planned visit: `site << 32 | page`, or `kTargetVisit | i` for
  /// TrafficConfig::target_urls[i].
  using VisitId = std::uint64_t;
  static constexpr VisitId kTargetVisit = VisitId{1} << 63;

  /// Throws std::invalid_argument if the corpus does not fit the id
  /// layout (2^31 sites, 2^32 pages per site).
  TrafficModel(const TrafficConfig& traffic, corpus::CorpusConfig corpus);

  /// Draws a fresh page: site by power-law popularity (site index ==
  /// rank - 1), page uniformly within the site. Generates no site.
  [[nodiscard]] VisitId sample_page(util::Rng& rng) const;

  /// The id of TrafficConfig::target_urls[i].
  [[nodiscard]] VisitId target_visit(std::size_t i) const {
    return target_ids_[i];
  }

  /// Writes the URL of `id` into `out` (cleared first, buffer reused),
  /// generating its site into `sites` if needed.
  void url_of(VisitId id, SiteTable::Lane& sites, std::string& out) const;

  [[nodiscard]] const corpus::WebCorpus& corpus() const noexcept {
    return corpus_;
  }

 private:
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
  std::vector<std::string> target_urls_;
  std::vector<VisitId> target_ids_;
};

}  // namespace sbp::sim
