#include "sim/traffic_model.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace sbp::sim {

TrafficModel::TrafficModel(const TrafficConfig& traffic,
                           corpus::CorpusConfig corpus,
                           std::size_t site_cache_entries)
    : corpus_(std::move(corpus)),
      rank_sampler_(traffic.site_popularity_alpha, 1,
                    std::max<std::uint64_t>(1, corpus_.num_hosts())),
      capacity_(std::max<std::size_t>(1, site_cache_entries)),
      target_urls_(traffic.target_urls) {
  const corpus::CorpusConfig& config = corpus_.config();
  if (corpus_.num_hosts() > (std::uint64_t{1} << 31) ||
      std::max(config.min_pages, config.max_pages) > (std::uint64_t{1} << 32)) {
    throw std::invalid_argument(
        "TrafficModel: corpus exceeds 2^31 sites or 2^32 pages per site");
  }
  // Sized to the rank sampler's range, which covers an empty corpus too.
  page_counts_ = std::make_unique<std::atomic<std::uint16_t>[]>(
      rank_sampler_.x_max());
  // One id per URL string: a repeated target shares its first occurrence's
  // id, and a target that is a corpus page's URL takes that page's id.
  target_ids_.reserve(target_urls_.size());
  for (std::size_t i = 0; i < target_urls_.size(); ++i) {
    const auto first = static_cast<std::size_t>(
        std::find(target_urls_.begin(), target_urls_.begin() + i,
                  target_urls_[i]) -
        target_urls_.begin());
    target_ids_.push_back(first < i ? target_ids_[first]
                                    : corpus_page_id(target_urls_[i])
                                          .value_or(kTargetVisit | i));
  }
}

std::optional<TrafficModel::VisitId> TrafficModel::corpus_page_id(
    const std::string& url) const {
  // Corpus URLs are "http://[sub.]site<index>.<tld>/<path>[?<query>]", and
  // no subdomain label contains "site".
  constexpr std::string_view kScheme = "http://";
  std::string_view rest(url);
  if (!rest.starts_with(kScheme)) return std::nullopt;
  rest.remove_prefix(kScheme.size());
  const std::string_view host = rest.substr(0, rest.find('/'));
  const std::size_t label = host.find("site");
  if (label == std::string_view::npos) return std::nullopt;
  std::size_t index = 0;
  const char* digits = host.data() + label + 4;
  if (std::from_chars(digits, host.data() + host.size(), index).ec !=
          std::errc{} ||
      index >= corpus_.num_hosts()) {
    return std::nullopt;
  }
  corpus::PackedSite site;
  corpus_.site_into(index, site);
  for (std::size_t page = 0; page < site.size(); ++page) {
    if (site.expression(page) == rest) {
      return static_cast<VisitId>(index) << 32 | page;
    }
  }
  return std::nullopt;
}

std::uint32_t TrafficModel::SiteCache::find(
    std::size_t index) const noexcept {
  if (slots_.empty()) return kNone;
  for (std::size_t i = home(index);; i = (i + 1) & mask()) {
    const Slot& slot = slots_[i];
    if (slot.entry == kNone || slot.key == index) return slot.entry;
  }
}

void TrafficModel::SiteCache::place(std::uint64_t key,
                                    std::uint32_t e) noexcept {
  std::size_t i = home(key);
  while (slots_[i].entry != kNone) i = (i + 1) & mask();
  slots_[i] = {key, e};
}

void TrafficModel::SiteCache::erase(std::uint64_t key) noexcept {
  std::size_t i = home(key);
  while (slots_[i].key != key) i = (i + 1) & mask();
  // Backward-shift deletion: pull each later slot of the probe run whose
  // home is not after the hole into it, so no run is broken.
  for (std::size_t j = (i + 1) & mask(); slots_[j].entry != kNone;
       j = (j + 1) & mask()) {
    if (((j - home(slots_[j].key)) & mask()) >= ((j - i) & mask())) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i].entry = kNone;
}

void TrafficModel::SiteCache::unlink(std::uint32_t e) noexcept {
  const Entry& entry = entries_[e];
  (entry.newer == kNone ? head_ : entries_[entry.newer].older) = entry.older;
  (entry.older == kNone ? tail_ : entries_[entry.older].newer) = entry.newer;
}

void TrafficModel::SiteCache::push_front(std::uint32_t e) noexcept {
  Entry& entry = entries_[e];
  entry.newer = kNone;
  entry.older = head_;
  (head_ == kNone ? tail_ : entries_[head_].newer) = e;
  head_ = e;
}

void TrafficModel::SiteCache::touch(std::uint32_t e) noexcept {
  if (e == head_) return;
  unlink(e);
  push_front(e);
}

std::uint32_t TrafficModel::SiteCache::claim(std::size_t index) {
  std::uint32_t e = tail_;
  if (entries_.size() < capacity_) {
    e = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
    if (2 * entries_.size() > slots_.size()) {
      // Double the table (16 slots at first) and re-place the live keys.
      slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), Slot{});
      shift_ = 64 - std::countr_zero(slots_.size());
      for (std::uint32_t live = 0; live < e; ++live) {
        place(entries_[live].index, live);
      }
    }
  } else {
    erase(entries_[e].index);
    unlink(e);
  }
  entries_[e].index = index;
  place(index, e);
  push_front(e);
  return e;
}

const corpus::PackedSite& TrafficModel::site(std::size_t index,
                                             std::uint64_t page,
                                             SiteCache& cache) const {
  std::uint32_t e = cache.find(index);
  const bool cached = e != SiteCache::kNone;
  if (cached) {
    cache.touch(e);
    if (page < cache.entries_[e].site.size()) {
      ++cache.hits_;
      return cache.entries_[e].site;
    }
  }
  // A site's first miss generates it through `page`. A request past a
  // cached prefix regenerates the whole site into the entry, so no later
  // page of the site misses again while the entry lives.
  ++cache.misses_;
  corpus_.site_into(index, cache.scratch_,
                    cached ? corpus::WebCorpus::kAllPages : page + 1);
  cache.pages_generated_ += cache.scratch_.size();
  if (!cached) e = cache.claim(index);
  // The scratch stays warm and as large as the largest site generated;
  // the entry's own buffers (an evicted or shorter site's) take a copy.
  // An entry keeps at most twice the capacity it needs, so the cache's
  // memory follows what it holds.
  corpus::PackedSite& held = cache.entries_[e].site;
  held.bytes.assign(cache.scratch_.bytes);
  held.ends.assign(cache.scratch_.ends.begin(), cache.scratch_.ends.end());
  if (held.bytes.capacity() > 2 * held.bytes.size()) held.bytes.shrink_to_fit();
  if (held.ends.capacity() > 2 * held.ends.size()) held.ends.shrink_to_fit();
  return held;
}

std::uint64_t TrafficModel::page_count(std::size_t index) const {
  std::atomic<std::uint16_t>& memo = page_counts_[index];
  std::uint64_t count = memo.load(std::memory_order_relaxed);
  if (count != 0) return count;
  count = corpus_.site_page_count(index);  // >= 1
  if (count < kUnmemoized) {
    memo.store(static_cast<std::uint16_t>(count), std::memory_order_relaxed);
  }
  return count;
}

TrafficModel::VisitId TrafficModel::sample_page(util::Rng& rng) const {
  // Rank r (1-based) maps straight to site index r-1: low indices are the
  // popular head. The page within the site is uniform.
  const std::size_t index =
      static_cast<std::size_t>(rank_sampler_.sample(rng) - 1);
  const std::uint64_t page = rng.next_below(page_count(index));
  return static_cast<VisitId>(index) << 32 | page;
}

void TrafficModel::url_of(VisitId id, SiteCache& cache,
                          std::string& out) const {
  if ((id & kTargetVisit) != 0) {
    out = target_urls_[id & ~kTargetVisit];
    return;
  }
  const std::uint64_t page = id & 0xFFFFFFFFu;
  const corpus::PackedSite& chosen =
      site(static_cast<std::size_t>(id >> 32), page, cache);
  out.assign("http://");
  out.append(chosen.expression(page));
}

}  // namespace sbp::sim
