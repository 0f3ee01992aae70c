#include "sb/sync_state_cache.hpp"

#include <algorithm>
#include <limits>

namespace sbp::sb {

namespace {

template <typename Table>
auto find_slot(Table& table, typename Table::key_type prior,
               std::string_view list, std::uint64_t variant) ->
    typename Table::mapped_type::value_type* {
  const auto it = table.find(prior);
  if (it == table.end()) return nullptr;
  for (auto& entry : it->second) {
    if (entry.list == list && entry.variant == variant) return &entry;
  }
  return nullptr;
}

/// Stores `entry` in its slot, replacing the update that slot last built.
template <typename Table, typename Entry>
void remember(Table& table, Entry&& entry) {
  if (auto* slot =
          find_slot(table, entry.prior.get(), entry.list, entry.variant)) {
    slot->source = std::move(entry.source);
    slot->update = entry.update;
    slot->next = std::move(entry.next);
    return;
  }
  const auto* key = entry.prior.get();
  table[key].push_back(std::forward<Entry>(entry));
}

template <typename Table>
void prune_table(Table& table) {
  // A state's outside holders are its use_count minus the references the
  // entries hold (as a prior or as a result). Dropping an entry lowers
  // both terms equally, so deciding every bucket on the counts taken
  // before any drop is exact, whatever the order. The null bucket has no
  // holder at all and always goes.
  std::unordered_map<typename Table::key_type, long> cache_refs;
  for (const auto& [prior, bucket] : table) {
    cache_refs[prior] += static_cast<long>(bucket.size());
    for (const auto& entry : bucket) {
      if (entry.next) ++cache_refs[entry.next.get()];
    }
  }
  std::vector<typename Table::key_type> unheld;
  for (const auto& [prior, bucket] : table) {
    if (prior == nullptr ||
        bucket.front().prior.use_count() == cache_refs[prior]) {
      unheld.push_back(prior);
    }
  }
  for (const auto prior : unheld) table.erase(prior);
}

template <typename Table>
std::size_t table_size(const Table& table) {
  std::size_t total = 0;
  for (const auto& [prior, bucket] : table) total += bucket.size();
  return total;
}

bool same_update(const std::vector<Chunk>& a, const std::vector<Chunk>& b) {
  return a == b;
}

bool same_update(const V4SliceUpdate& a, const V4SliceUpdate& b) {
  return a.full_reset == b.full_reset &&
         a.removal_indices == b.removal_indices && a.additions == b.additions;
}

/// Whether `entry` was built from `update`, carried by `frame`: the same
/// frame carries the same update for the slot's list, so a pointer compare
/// decides; any other caller is compared by contents.
template <typename Entry, typename Update>
bool built_from(const Entry& entry, const ResponseFrame& frame,
                const Update& update) {
  if (entry.source.frame != nullptr && entry.source.frame == frame) {
    return true;
  }
  return same_update(*entry.update, update);
}

}  // namespace

template <typename M, typename Build>
typename M::StatePtr SyncStateCache::get_or_build(
    M& memo, typename M::StatePtr prior, std::string_view list,
    std::uint64_t variant, const typename M::Source& source,
    const typename M::UpdateType& update, Build&& build) {
  if (pruning_ == Pruning::kManual) {
    // Lock-free: the published table changes only in prune().
    const auto* slot = find_slot(memo.published, prior.get(), list, variant);
    if (slot != nullptr && built_from(*slot, source.frame, update)) {
      return slot->next;
    }
  }
  const obs::TimedMutex::Guard lock(mutex_);
  const auto* slot = find_slot(memo.pending, prior.get(), list, variant);
  if (slot != nullptr && built_from(*slot, source.frame, update)) {
    return slot->next;
  }
  typename M::StatePtr next = build(prior);
  ++builds_;
  remember(memo.pending,
           typename M::Entry{std::move(prior), std::string(list), variant,
                             source, &update, next});
  if (pruning_ == Pruning::kAfterBuild) {
    prune_table(v3_.pending);
    prune_table(v4_.pending);
  }
  return next;
}

SyncStateCache::V3State SyncStateCache::next_v3(
    V3State prior, const SharedUpdate& response,
    const UpdateResponse::ListUpdate& update, storage::StoreKind kind,
    std::size_t bloom_bits) {
  const bool nothing_new = std::all_of(
      update.chunks.begin(), update.chunks.end(), [&prior](const Chunk& c) {
        return prior && prior->chunks.has_chunk(c.number, c.type);
      });
  if (nothing_new) return prior;
  const std::uint64_t variant =
      (static_cast<std::uint64_t>(kind) << 56) ^ bloom_bits;
  return get_or_build(
      v3_, std::move(prior), update.list_name, variant, response,
      update.chunks, [&](const V3State& from) -> V3State {
        auto next = std::make_shared<ChunkedListState>();
        if (from) next->chunks = from->chunks;
        for (const Chunk& chunk : update.chunks) next->chunks.apply(chunk);
        next->chunks.effective_prefixes_into(
            std::numeric_limits<std::uint32_t>::max(), prefixes_, subs_);
        batch_.assign_sorted32(prefixes_);
        next->store = storage::make_store(kind, batch_, bloom_bits);
        return next;
      });
}

SyncStateCache::V4State SyncStateCache::next_v4(
    V4State prior, const SharedV4Update& response,
    const V4SliceUpdate& slice) {
  if (slice.full_reset) {
    prior.reset();  // a full reset's result does not depend on the prior
  } else if (slice.removal_indices.empty() && slice.additions.empty()) {
    return prior;
  }
  return get_or_build(
      v4_, std::move(prior), slice.list_name, 0, response, slice,
      [&](const V4State& from) -> V4State {
        if (slice.full_reset) {
          auto next = std::make_shared<storage::RawHashStore>();
          if (!next->reset(slice.additions)) return nullptr;
          return next;
        }
        std::optional<storage::RawHashStore> next =
            from ? from->sliced(slice.removal_indices, slice.additions)
                 : storage::RawHashStore{}.sliced(slice.removal_indices,
                                                  slice.additions);
        if (!next) return nullptr;
        return std::make_shared<const storage::RawHashStore>(
            std::move(*next));
      });
}

void SyncStateCache::publish() {
  if (pruning_ == Pruning::kAfterBuild) return;
  const std::lock_guard<obs::TimedMutex> lock(mutex_);
  // A pending slot replaces the published slot of its key, as a build
  // replaces a slot's update.
  const auto move_pending = [](auto& memo) {
    for (auto& [prior, bucket] : memo.pending) {
      for (auto& entry : bucket) remember(memo.published, std::move(entry));
    }
    memo.pending.clear();
  };
  move_pending(v3_);
  move_pending(v4_);
}

void SyncStateCache::prune() {
  publish();
  const std::lock_guard<obs::TimedMutex> lock(mutex_);
  auto& v3 = pruning_ == Pruning::kManual ? v3_.published : v3_.pending;
  auto& v4 = pruning_ == Pruning::kManual ? v4_.published : v4_.pending;
  prune_table(v3);
  prune_table(v4);
}

std::uint64_t SyncStateCache::builds() const {
  const std::lock_guard<obs::TimedMutex> lock(mutex_);
  return builds_;
}

std::size_t SyncStateCache::live_entries() const {
  const std::lock_guard<obs::TimedMutex> lock(mutex_);
  return table_size(v3_.published) + table_size(v3_.pending) +
         table_size(v4_.published) + table_size(v4_.pending);
}

}  // namespace sbp::sb
