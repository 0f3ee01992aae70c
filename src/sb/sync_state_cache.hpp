// Client sync states (paper Section 2.2's local database): the pure
// functions that apply one update to an immutable synced state, and a memo
// of them shared by a population, so a state is built once per distinct
// transition instead of once per client.
//
// apply_v3 / apply_v4 are the one implementation of a sync: (prior state,
// update) -> next state. Every client in the same list state holds a
// byte-identical local database: v3 clients apply the same shavar chunks
// and build the same prefix store, v4 clients apply the same slice to the
// same sorted prefix array. A client whose ClientConfig::sync_states is
// null calls them directly and holds nothing but its own states. A
// SyncStateCache memoizes them, so a fleet re-syncing from one state pays
// ONE apply+rebuild, and every client of that state holds a shared_ptr to
// the one immutable result.
//
//   * Key: the IDENTITY of the prior state (its address; null = nothing
//     synced yet, and every v4 full reset, whose result ignores the prior)
//     plus the list name, and for v3 the store kind and Bloom size. Each
//     such slot remembers the update it last built from: the shared
//     decoded response that holds it (not a copy) and the response frame
//     it was decoded from. A caller presenting the same frame hits with a
//     pointer compare -- one frame carries one update per list. Any other
//     caller (a frame-less update, or equal bytes in another buffer: the
//     socket transport's case) is compared by the update's contents (v3
//     chunks; v4 full_reset, removals, additions). Either way a hit returns
//     exactly what a fresh build would -- Bloom false positives included,
//     since they depend only on the bytes.
//   * Each entry holds a shared_ptr to its prior state, so a freed state's
//     address is never reused as a live key.
//   * prune() drops every entry whose prior state nothing but the cache
//     references: no client can present it again, so memory stays bounded
//     by the live states.
//   * Concurrency. Each generation's slots live in one sb::PublishedTable:
//     a hit on the published table takes no lock; a miss takes that
//     table's mutex, so concurrent clients asking for one transition see
//     exactly one build; publish() and prune() change the published table
//     only at quiescent points (sim::Engine: the tick barrier). The two
//     mutexes' summed acquisitions are the `sync_state_locked` counter.
//     apply_v3 rebuilds into per-thread scratch, so direct calls from many
//     threads need no lock either.
//
// What stays per client (sb::PrefixProtocolClient, one update loop for v3
// and v4): the wire exchange, backoff, the full-hash cache and its
// clear-on-update, updates_failed, the v4 state token, and the v4 checksum
// verification (sb::V4Sync::apply) -- against the checksum the store
// computed once when it was built.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "crypto/digest.hpp"
#include "obs/lock.hpp"
#include "sb/chunk.hpp"
#include "sb/published_table.hpp"
#include "sb/server.hpp"
#include "storage/prefix_store.hpp"
#include "storage/raw_hash_store.hpp"

namespace sbp::sb {

/// One v3 list as synced: the applied chunks and the prefix store built
/// from their effective set.
struct ChunkedListState {
  ChunkStore chunks;
  std::unique_ptr<const storage::PrefixStore> store;
};

using V3State = std::shared_ptr<const ChunkedListState>;
using V4State = std::shared_ptr<const storage::RawHashStore>;

/// `prior` (null = nothing synced) after applying `update`, one list of a
/// v3 update response, with the store rebuilt as `kind`. Re-sent chunks
/// are no-ops (ChunkStore::apply); an update that brings nothing new
/// returns `prior` itself.
[[nodiscard]] V3State apply_v3(V3State prior,
                               const UpdateResponse::ListUpdate& update,
                               storage::StoreKind kind,
                               std::size_t bloom_bits);

/// `prior` (null = empty) after applying `slice`, one list of a v4 update
/// response; null when the slice does not apply (unsorted / out-of-range /
/// duplicate -- the client desyncs). The checksum is NOT checked here:
/// that comparison is per client. A full reset ignores `prior`; an empty
/// incremental slice returns `prior` itself.
[[nodiscard]] V4State apply_v4(V4State prior, const V4SliceUpdate& slice);

class SyncStateCache {
 public:
  /// apply_v3(prior, update, kind, bloom_bits), memoized. `update` is one
  /// list of the v3 update response `response`, an element of
  /// `response.value->lists`.
  [[nodiscard]] V3State next_v3(V3State prior, const SharedUpdate& response,
                                const UpdateResponse::ListUpdate& update,
                                storage::StoreKind kind,
                                std::size_t bloom_bits);

  /// apply_v4(prior, slice), memoized. `slice` is one list of the v4
  /// update response `response`.
  [[nodiscard]] V4State next_v4(V4State prior,
                                const SharedV4Update& response,
                                const V4SliceUpdate& slice);

  /// Moves the entries built since the last publish into the published
  /// tables, which later calls read with no lock. Only while no thread
  /// calls next_v3/next_v4.
  void publish() {
    v3_.publish();
    v4_.publish();
  }

  /// publish(), then drops every entry whose prior state is referenced by
  /// the cache alone. Only while no thread calls next_v3/next_v4.
  void prune();

  /// Apply+rebuilds run so far (v3 and v4, failed v4 applies included).
  [[nodiscard]] std::uint64_t builds() const {
    return v3_.builds() + v4_.builds();
  }
  /// Entries currently held (test support: the memory bound).
  [[nodiscard]] std::size_t live_entries() const {
    return v3_.size() + v4_.size();
  }

  /// The get-or-build mutexes' summed figures: their acquisitions (the
  /// `sync_state_locked` counter: next_v3/next_v4 calls that missed the
  /// published tables) and, with lock metrics on, their wait and hold
  /// times. Only while no thread calls next_v3/next_v4.
  [[nodiscard]] obs::LockStats lock_stats() const;
  /// Times the mutexes' waits and holds. Only while no thread calls
  /// next_v3/next_v4.
  void set_lock_metrics(bool on) {
    v3_.set_lock_metrics(on);
    v4_.set_lock_metrics(on);
  }

 private:
  /// A slot's key: (prior address, list, variant). A stored key's list
  /// views the list name inside its own slot's pinned response.
  struct Key {
    const void* prior;
    std::string_view list;
    std::uint64_t variant;  // v3: store kind + Bloom size; v4: 0
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return std::hash<std::string_view>{}(key.list) ^
             (std::hash<const void*>{}(key.prior) * 31) ^ key.variant;
    }
  };

  /// One transition: each slot remembers the update it last built from.
  template <typename State, typename Response, typename Update>
  struct Slot {
    std::shared_ptr<const State> prior;  // pins the key address
    SharedResponse<Response> source;  // pins *update and the key's list
    const Update* update = nullptr;   // inside *source.value
    std::shared_ptr<const State> next;  // null: the v4 slice failed
  };
  template <typename S>
  using Table = PublishedTable<Key, S, KeyHash>;
  using V3Slot = Slot<ChunkedListState, UpdateResponse, std::vector<Chunk>>;
  using V4Slot = Slot<storage::RawHashStore, V4UpdateResponse, V4SliceUpdate>;

  /// The slot for (prior, list, variant) when it was built from `update`
  /// (carried by `source`); else runs `build(prior)` into pending.
  template <typename S, typename Update, typename Build>
  [[nodiscard]] static decltype(S::next) get_or_build(
      Table<S>& table, decltype(S::prior) prior, std::string_view list,
      std::uint64_t variant, const decltype(S::source)& source,
      const Update& update, Build&& build);

  Table<V3Slot> v3_;
  Table<V4Slot> v4_;
};

}  // namespace sbp::sb
