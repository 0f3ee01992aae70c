#include "sb/sync_state_cache.hpp"

#include <algorithm>
#include <limits>

namespace sbp::sb {

template <typename State, typename Update>
auto SyncStateCache::Memo<State, Update>::find(const State* prior,
                                               std::string_view list,
                                               std::uint64_t variant)
    -> Entry* {
  const auto it = buckets.find(prior);
  if (it == buckets.end()) return nullptr;
  for (Entry& entry : it->second) {
    if (entry.list == list && entry.variant == variant) return &entry;
  }
  return nullptr;
}

template <typename State, typename Update>
void SyncStateCache::Memo<State, Update>::remember(StatePtr prior,
                                                   std::string_view list,
                                                   std::uint64_t variant,
                                                   Update update,
                                                   StatePtr next) {
  if (Entry* slot = find(prior.get(), list, variant)) {
    slot->update = std::move(update);
    slot->next = std::move(next);
    return;
  }
  auto& bucket = buckets[prior.get()];
  bucket.push_back({std::move(prior), std::string(list), variant,
                    std::move(update), std::move(next)});
}

template <typename State, typename Update>
void SyncStateCache::Memo<State, Update>::prune() {
  // A state's outside holders are its use_count minus the references the
  // entries hold (as a prior or as a result). Dropping an entry lowers
  // both terms equally, so one pass in any order is exact. The null
  // bucket has no holder at all and always goes.
  std::unordered_map<const State*, long> cache_refs;
  for (const auto& [prior, bucket] : buckets) {
    cache_refs[prior] += static_cast<long>(bucket.size());
    for (const Entry& entry : bucket) {
      if (entry.next) ++cache_refs[entry.next.get()];
    }
  }
  std::erase_if(buckets, [&cache_refs](const auto& item) {
    const auto& [prior, bucket] = item;
    return prior == nullptr ||
           bucket.front().prior.use_count() == cache_refs[prior];
  });
}

template <typename State, typename Update>
std::size_t SyncStateCache::Memo<State, Update>::size() const {
  std::size_t total = 0;
  for (const auto& [prior, bucket] : buckets) total += bucket.size();
  return total;
}

SyncStateCache::V3State SyncStateCache::next_v3(V3State prior,
                                                std::string_view list,
                                                std::span<const Chunk> chunks,
                                                storage::StoreKind kind,
                                                std::size_t bloom_bits) {
  const bool nothing_new =
      std::all_of(chunks.begin(), chunks.end(), [&prior](const Chunk& c) {
        return prior && prior->chunks.has_chunk(c.number, c.type);
      });
  if (nothing_new) return prior;
  const std::uint64_t variant =
      (static_cast<std::uint64_t>(kind) << 56) ^ bloom_bits;

  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto* slot = v3_.find(prior.get(), list, variant)) {
    if (std::equal(slot->update.begin(), slot->update.end(), chunks.begin(),
                   chunks.end())) {
      return slot->next;
    }
  }

  auto next = std::make_shared<ChunkedListState>();
  if (prior) next->chunks = prior->chunks;
  for (const Chunk& chunk : chunks) next->chunks.apply(chunk);
  next->chunks.effective_prefixes_into(
      std::numeric_limits<std::uint32_t>::max(), prefixes_, subs_);
  batch_.assign_sorted32(prefixes_);
  next->store = storage::make_store(kind, batch_, bloom_bits);
  ++builds_;

  V3State result = std::move(next);
  v3_.remember(std::move(prior), list, variant,
               std::vector<Chunk>(chunks.begin(), chunks.end()), result);
  if (pruning_ == Pruning::kAfterBuild) prune_locked();
  return result;
}

SyncStateCache::V4State SyncStateCache::next_v4(V4State prior,
                                                const V4SliceUpdate& slice) {
  if (slice.full_reset) {
    prior.reset();  // a full reset's result does not depend on the prior
  } else if (slice.removal_indices.empty() && slice.additions.empty()) {
    return prior;
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto* slot = v4_.find(prior.get(), slice.list_name, 0)) {
    if (slot->update.matches(slice)) return slot->next;
  }

  V4State result;
  if (slice.full_reset) {
    auto next = std::make_shared<storage::RawHashStore>();
    if (next->reset(slice.additions)) result = std::move(next);
  } else {
    std::optional<storage::RawHashStore> next =
        prior ? prior->sliced(slice.removal_indices, slice.additions)
              : storage::RawHashStore{}.sliced(slice.removal_indices,
                                               slice.additions);
    if (next) {
      result = std::make_shared<const storage::RawHashStore>(std::move(*next));
    }
  }
  ++builds_;

  v4_.remember(std::move(prior), slice.list_name, 0,
               SliceContents{slice.full_reset, slice.removal_indices,
                             slice.additions},
               result);
  if (pruning_ == Pruning::kAfterBuild) prune_locked();
  return result;
}

void SyncStateCache::prune_locked() {
  v3_.prune();
  v4_.prune();
}

void SyncStateCache::prune() {
  const std::lock_guard<std::mutex> lock(mutex_);
  prune_locked();
}

std::uint64_t SyncStateCache::builds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return builds_;
}

std::size_t SyncStateCache::live_entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return v3_.size() + v4_.size();
}

}  // namespace sbp::sb
