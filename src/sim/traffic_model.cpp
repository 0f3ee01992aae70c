#include "sim/traffic_model.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
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
  const corpus::Site site = corpus_.site(index);
  for (std::size_t page = 0; page < site.pages.size(); ++page) {
    if (site.pages[page].url() == url) {
      return static_cast<VisitId>(index) << 32 | page;
    }
  }
  return std::nullopt;
}

const corpus::Site& TrafficModel::site(std::size_t index,
                                       SiteCache& cache) const {
  const auto it = cache.by_index_.find(index);
  if (it != cache.by_index_.end()) {
    ++cache.hits_;
    cache.lru_.splice(cache.lru_.begin(), cache.lru_, it->second);
    return it->second->site;
  }
  ++cache.misses_;
  if (cache.lru_.size() < cache.capacity_) {
    cache.lru_.push_front({index, corpus_.site(index)});
    cache.by_index_.emplace(index, cache.lru_.begin());
    return cache.lru_.front().site;
  }
  // Full: the least recently used entry's list and map nodes are reused
  // for the new site.
  cache.lru_.splice(cache.lru_.begin(), cache.lru_,
                    std::prev(cache.lru_.end()));
  SiteCache::Entry& entry = cache.lru_.front();
  auto node = cache.by_index_.extract(entry.index);
  node.key() = index;
  cache.by_index_.insert(std::move(node));
  entry.index = index;
  entry.site = corpus_.site(index);
  return entry.site;
}

TrafficModel::VisitId TrafficModel::sample_page(util::Rng& rng) const {
  // Rank r (1-based) maps straight to site index r-1: low indices are the
  // popular head. The page within the site is uniform.
  const std::size_t index =
      static_cast<std::size_t>(rank_sampler_.sample(rng) - 1);
  const std::uint64_t page = rng.next_below(corpus_.site_page_count(index));
  return static_cast<VisitId>(index) << 32 | page;
}

void TrafficModel::url_of(VisitId id, SiteCache& cache,
                          std::string& out) const {
  if ((id & kTargetVisit) != 0) {
    out = target_urls_[id & ~kTargetVisit];
    return;
  }
  const corpus::Site& chosen = site(static_cast<std::size_t>(id >> 32), cache);
  out.assign("http://");
  chosen.pages[id & 0xFFFFFFFFu].append_expression_to(out);
}

}  // namespace sbp::sim
