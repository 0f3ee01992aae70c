#include "sb/sync_state_cache.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>

namespace sbp::sb {

namespace {

/// Drops every slot whose prior state is referenced by the table alone.
template <typename Table>
void prune_table(Table& table) {
  // A state's outside holders are its use_count minus the references the
  // slots hold (as a prior or as a result). Dropping a slot lowers both
  // terms equally, so deciding every slot on the counts taken before any
  // drop is exact, whatever the order. A null prior has no holder at all
  // and always goes.
  std::unordered_map<const void*, long> cache_refs;
  for (const auto& [key, slot] : table.published()) {
    ++cache_refs[key.prior];
    if (slot.next) ++cache_refs[slot.next.get()];
  }
  table.prune([&cache_refs](const auto& key, const auto& slot) {
    return key.prior == nullptr ||
           slot.prior.use_count() == cache_refs[key.prior];
  });
}

bool nothing_new(const V3State& prior,
                 const UpdateResponse::ListUpdate& update) {
  return std::all_of(
      update.chunks.begin(), update.chunks.end(), [&prior](const Chunk& c) {
        return prior && prior->chunks.has_chunk(c.number, c.type);
      });
}

bool empty_slice(const V4SliceUpdate& slice) {
  return !slice.full_reset && slice.removal_indices.empty() &&
         slice.additions.empty();
}

bool same_update(const std::vector<Chunk>& a, const std::vector<Chunk>& b) {
  return a == b;
}

bool same_update(const V4SliceUpdate& a, const V4SliceUpdate& b) {
  return a.full_reset == b.full_reset &&
         a.removal_indices == b.removal_indices && a.additions == b.additions;
}

/// Whether `slot` was built from `update`, carried by `frame`: the same
/// frame carries the same update for the slot's list, so a pointer compare
/// decides; any other caller is compared by contents.
template <typename Slot, typename Update>
bool built_from(const Slot& slot, const ResponseFrame& frame,
                const Update& update) {
  if (slot.source.frame != nullptr && slot.source.frame == frame) {
    return true;
  }
  return same_update(*slot.update, update);
}

}  // namespace

template <typename S, typename Update, typename Build>
decltype(S::next) SyncStateCache::get_or_build(
    Table<S>& table, decltype(S::prior) prior, std::string_view list,
    std::uint64_t variant, const decltype(S::source)& source,
    const Update& update, Build&& build) {
  const Key key{prior.get(), list, variant};
  const auto fits = [&](const S& slot) {
    return built_from(slot, source.frame, update);
  };
  if (const S* slot = table.find(key); slot && fits(*slot)) return slot->next;
  const auto build_slot = [&] {
    auto next = build(prior);
    return std::optional(S{std::move(prior), source, &update, std::move(next)});
  };
  return table.get_or_build(key, fits, build_slot).next;
}

V3State apply_v3(V3State prior, const UpdateResponse::ListUpdate& update,
                 storage::StoreKind kind, std::size_t bloom_bits) {
  if (nothing_new(prior, update)) return prior;
  // Rebuild scratch, reused across builds: one set per thread, like the
  // clients' update requests.
  thread_local std::vector<crypto::Prefix32> prefixes;
  thread_local std::vector<crypto::Prefix32> subs;
  thread_local storage::PrefixBatch batch(4);
  auto next = std::make_shared<ChunkedListState>();
  if (prior) next->chunks = prior->chunks;
  for (const Chunk& chunk : update.chunks) next->chunks.apply(chunk);
  next->chunks.effective_prefixes_into(
      std::numeric_limits<std::uint32_t>::max(), prefixes, subs);
  batch.assign_sorted32(prefixes);
  next->store = storage::make_store(kind, batch, bloom_bits);
  return next;
}

V4State apply_v4(V4State prior, const V4SliceUpdate& slice) {
  if (slice.full_reset) {
    auto next = std::make_shared<storage::RawHashStore>();
    if (!next->reset(slice.additions)) return nullptr;
    return next;
  }
  if (empty_slice(slice)) return prior;
  std::optional<storage::RawHashStore> next =
      prior ? prior->sliced(slice.removal_indices, slice.additions)
            : storage::RawHashStore{}.sliced(slice.removal_indices,
                                             slice.additions);
  if (!next) return nullptr;
  return std::make_shared<const storage::RawHashStore>(std::move(*next));
}

V3State SyncStateCache::next_v3(
    V3State prior, const SharedUpdate& response,
    const UpdateResponse::ListUpdate& update, storage::StoreKind kind,
    std::size_t bloom_bits) {
  if (nothing_new(prior, update)) return prior;
  const std::uint64_t variant =
      (static_cast<std::uint64_t>(kind) << 56) ^ bloom_bits;
  return get_or_build(v3_, std::move(prior), update.list_name, variant,
                      response, update.chunks, [&](const V3State& from) {
                        return apply_v3(from, update, kind, bloom_bits);
                      });
}

V4State SyncStateCache::next_v4(
    V4State prior, const SharedV4Update& response,
    const V4SliceUpdate& slice) {
  if (slice.full_reset) {
    prior.reset();  // a full reset's result does not depend on the prior
  } else if (empty_slice(slice)) {
    return prior;
  }
  return get_or_build(v4_, std::move(prior), slice.list_name, 0, response,
                      slice, [&](const V4State& from) {
                        return apply_v4(from, slice);
                      });
}

void SyncStateCache::prune() {
  publish();
  prune_table(v3_);
  prune_table(v4_);
}

obs::LockStats SyncStateCache::lock_stats() const {
  obs::LockStats stats = v3_.lock_stats();
  const obs::LockStats v4 = v4_.lock_stats();
  stats.acquisitions += v4.acquisitions;
  stats.wait_ns.merge_from(v4.wait_ns);
  stats.hold_ns.merge_from(v4.hold_ns);
  return stats;
}

}  // namespace sbp::sb
