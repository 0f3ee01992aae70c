#include "sim/traffic_model.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace sbp::sim {

TrafficModel::TrafficModel(const TrafficConfig& traffic,
                           corpus::CorpusConfig corpus)
    : corpus_(std::move(corpus)),
      rank_sampler_(traffic.site_popularity_alpha, 1,
                    std::max<std::uint64_t>(1, corpus_.num_hosts())),
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

SiteTable::SiteTable(std::size_t capacity, std::size_t lanes)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) lanes_.push_back(Lane(*this));
}

const corpus::PackedSite& SiteTable::Lane::site(
    const corpus::WebCorpus& corpus, std::size_t index, std::uint64_t page) {
  // About one or two misses per lane and tick: a scan beats a map.
  const auto live = pending_.begin() + static_cast<std::ptrdiff_t>(live_);
  auto mine = std::find_if(pending_.begin(), live, [&](const auto& p) {
    return p.index == index;
  });
  const corpus::PackedSite* held = nullptr;
  if (mine != live) {
    held = &mine->site;
  } else if (const auto slot = table_->slots_.find(index);
             slot != table_->slots_.end()) {
    touched_.push_back(slot->second);
    held = &table_->entries_[slot->second].site;
  }
  if (held != nullptr && page < held->size()) {
    ++hits_;
    return *held;
  }
  // A site's first miss generates it through `page`; a request past a held
  // prefix generates the whole site, so no later page of it misses again.
  ++misses_;
  if (mine == live) {
    if (live_ == pending_.size()) pending_.emplace_back();
    mine = pending_.begin() + static_cast<std::ptrdiff_t>(live_++);
    mine->index = index;
  }
  corpus.site_into(index, mine->site,
                   held != nullptr ? corpus::WebCorpus::kAllPages : page + 1);
  pages_generated_ += mine->site.size();
  return mine->site;
}

void SiteTable::publish() {
  // Every lane's uses first, so no lane's new sites evict what another
  // lane used this tick before its bit is set.
  for (Lane& lane : lanes_) {
    for (const std::uint32_t e : lane.touched_) entries_[e].referenced = true;
    lane.touched_.clear();
  }
  for (Lane& lane : lanes_) {
    for (std::size_t i = 0; i < lane.live_; ++i) merge(lane.pending_[i]);
    lane.live_ = 0;
    hits_ += std::exchange(lane.hits_, 0);
    misses_ += std::exchange(lane.misses_, 0);
    pages_generated_ += std::exchange(lane.pages_generated_, 0);
  }
}

void SiteTable::merge(Lane::Pending& pending) {
  corpus::PackedSite* into = nullptr;
  if (const auto slot = slots_.find(pending.index); slot != slots_.end()) {
    // Held already (another lane's, or a prefix): keep the longer copy.
    into = &entries_[slot->second].site;
    if (pending.site.size() <= into->size()) return;
  } else if (entries_.size() < capacity_) {
    slots_.emplace(pending.index, static_cast<std::uint32_t>(entries_.size()));
    into = &entries_.emplace_back().site;
    entries_.back().index = pending.index;
  } else {
    // Second chance: the hand clears each referenced bit it passes and
    // stops at the first clear one, whose site leaves. Its map node is
    // re-keyed, not freed.
    for (; entries_[hand_].referenced; hand_ = (hand_ + 1) % capacity_) {
      entries_[hand_].referenced = false;
    }
    Entry& victim = entries_[hand_];
    hand_ = (hand_ + 1) % capacity_;
    auto node = slots_.extract(victim.index);
    node.key() = victim.index = pending.index;
    slots_.insert(std::move(node));
    into = &victim.site;
  }
  // The held buffer goes back to the lane as a spare. One left holding
  // less than half its capacity is shrunk, so the table's memory follows
  // what it holds.
  std::swap(*into, pending.site);
  if (into->bytes.capacity() > 2 * into->bytes.size()) {
    into->bytes.shrink_to_fit();
  }
  if (into->ends.capacity() > 2 * into->ends.size()) into->ends.shrink_to_fit();
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

void TrafficModel::url_of(VisitId id, SiteTable::Lane& sites,
                          std::string& out) const {
  if ((id & kTargetVisit) != 0) {
    out = target_urls_[id & ~kTargetVisit];
    return;
  }
  const std::uint64_t page = id & 0xFFFFFFFFu;
  const corpus::PackedSite& chosen =
      sites.site(corpus_, static_cast<std::size_t>(id >> 32), page);
  out.assign("http://");
  out.append(chosen.expression(page));
}

}  // namespace sbp::sim
