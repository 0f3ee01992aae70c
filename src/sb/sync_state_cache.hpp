// Shared immutable client sync states (paper Section 2.2's local database,
// built once per distinct state instead of once per client).
//
// Every client in the same list state holds a byte-identical local
// database: v3 clients apply the same shavar chunks and build the same
// prefix store, v4 clients apply the same slice to the same sorted prefix
// array. A SyncStateCache memoizes that pure function -- (prior state,
// update) -> next state -- so a fleet re-syncing from one state pays ONE
// apply+rebuild, and every client of that state holds a shared_ptr to the
// one immutable result.
//
//   * Key: the IDENTITY of the prior state (its address; null = nothing
//     synced yet, and every v4 full reset, whose result ignores the prior)
//     plus the list name, and for v3 the store kind and Bloom size. Each
//     such slot remembers the last update it built; a lookup compares the
//     update's contents exactly (v3 chunks; v4 full_reset, removals,
//     additions), so a hit returns exactly what a fresh build would --
//     Bloom false positives included, since they depend only on the bytes.
//   * Each entry holds a shared_ptr to its prior state, so a freed state's
//     address is never reused as a live key.
//   * prune() drops every entry whose prior state nothing but the cache
//     references: no client can present it again, so memory stays bounded
//     by the live states.
//   * One mutex serializes get-or-build: concurrent clients asking for the
//     same key see exactly one build.
//
// What stays per client (sb::Client, sb::V4SlicedProtocol): the wire
// exchange, backoff, the full-hash cache and its clear-on-update,
// updates_failed, the v4 state token, and the v4 checksum verification --
// against the checksum the shared store computed once when it was built.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/digest.hpp"
#include "sb/chunk.hpp"
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

class SyncStateCache {
 public:
  using V3State = std::shared_ptr<const ChunkedListState>;
  using V4State = std::shared_ptr<const storage::RawHashStore>;

  /// When entries are pruned. kAfterBuild (a client's private cache):
  /// every build ends with prune(), so once a client moves its old state
  /// in, the cache keeps nothing alive. kManual: only explicit prune()
  /// calls -- for a population that shares its initial syncs (null prior)
  /// and needs a build count independent of thread interleaving, pruning
  /// at quiescent points (sim::Engine: after every tick barrier).
  enum class Pruning { kAfterBuild, kManual };

  explicit SyncStateCache(Pruning pruning = Pruning::kAfterBuild)
      : pruning_(pruning) {}

  /// `prior` (null = nothing synced) after applying `chunks` -- the list's
  /// chunks of one v3 update response -- with the store rebuilt as `kind`.
  /// Re-sent chunks are no-ops (ChunkStore::apply); an update that brings
  /// nothing new returns `prior` itself.
  [[nodiscard]] V3State next_v3(V3State prior, std::string_view list,
                                std::span<const Chunk> chunks,
                                storage::StoreKind kind,
                                std::size_t bloom_bits);

  /// `prior` (null = empty) after applying one v4 slice; null when the
  /// slice does not apply (unsorted / out-of-range / duplicate -- the
  /// client desyncs). The checksum is NOT checked here: that comparison is
  /// per client. An empty incremental slice returns `prior` itself.
  [[nodiscard]] V4State next_v4(V4State prior, const V4SliceUpdate& slice);

  /// Drops every entry whose prior state is referenced by the cache alone.
  void prune();

  /// Apply+rebuilds run so far (v3 and v4, failed v4 applies included).
  [[nodiscard]] std::uint64_t builds() const;
  /// Entries currently held (test support: the memory bound).
  [[nodiscard]] std::size_t live_entries() const;

 private:
  /// The parts of a v4 slice its result depends on.
  struct SliceContents {
    bool full_reset = false;
    std::vector<std::uint32_t> removal_indices;
    std::vector<crypto::Prefix32> additions;

    [[nodiscard]] bool matches(const V4SliceUpdate& slice) const {
      return full_reset == slice.full_reset &&
             removal_indices == slice.removal_indices &&
             additions == slice.additions;
    }
  };

  /// One memo per generation: prior address -> that prior's slots.
  template <typename State, typename Update>
  struct Memo {
    using StatePtr = std::shared_ptr<const State>;
    struct Entry {
      StatePtr prior;  // pins the key address
      std::string list;
      std::uint64_t variant = 0;  // v3: store kind + Bloom size; v4: 0
      Update update;
      StatePtr next;  // null: the v4 slice failed
    };

    /// The slot for (prior, list, variant), or nullptr.
    Entry* find(const State* prior, std::string_view list,
                std::uint64_t variant);
    /// Remembers update -> next in that slot, replacing its last update.
    void remember(StatePtr prior, std::string_view list,
                  std::uint64_t variant, Update update, StatePtr next);
    void prune();
    [[nodiscard]] std::size_t size() const;

    std::unordered_map<const State*, std::vector<Entry>> buckets;
  };

  void prune_locked();

  const Pruning pruning_;
  mutable std::mutex mutex_;
  Memo<ChunkedListState, std::vector<Chunk>> v3_;
  Memo<storage::RawHashStore, SliceContents> v4_;
  std::uint64_t builds_ = 0;
  // v3 rebuild scratch, reused across builds (guarded by mutex_).
  std::vector<crypto::Prefix32> prefixes_;
  std::vector<crypto::Prefix32> subs_;
  storage::PrefixBatch batch_{4};
};

}  // namespace sbp::sb
