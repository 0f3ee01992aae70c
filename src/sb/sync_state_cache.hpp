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
//   * Concurrency. In Pruning::kManual mode the slots live in two tables:
//     a published one, read with no lock and changed only by publish() and
//     prune() at quiescent points (sim::Engine: the tick barrier), and a
//     pending one behind the mutex. A call that misses the published table
//     takes the mutex, probes pending, and builds into pending on a miss,
//     so concurrent clients asking for the same key see exactly one build;
//     publish() (and prune(), which publishes first) moves pending into
//     published. A kAfterBuild (private) cache keeps one table behind the
//     mutex. The mutex is an obs::TimedMutex: its acquisitions are the
//     `sync_state_locked` counter.
//
// What stays per client (sb::Client, sb::V4SlicedProtocol): the wire
// exchange, backoff, the full-hash cache and its clear-on-update,
// updates_failed, the v4 state token, and the v4 checksum verification --
// against the checksum the shared store computed once when it was built.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/digest.hpp"
#include "obs/lock.hpp"
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

  /// `prior` (null = nothing synced) after applying `update` -- one list
  /// of the v3 update response `response`, an element of
  /// `response.value->lists` -- with the store rebuilt as `kind`. Re-sent
  /// chunks are no-ops (ChunkStore::apply); an update that brings nothing
  /// new returns `prior` itself.
  [[nodiscard]] V3State next_v3(V3State prior, const SharedUpdate& response,
                                const UpdateResponse::ListUpdate& update,
                                storage::StoreKind kind,
                                std::size_t bloom_bits);

  /// `prior` (null = empty) after applying `slice`, one list of the v4
  /// update response `response`; null when the slice does not apply
  /// (unsorted / out-of-range / duplicate -- the client desyncs). The
  /// checksum is NOT checked here: that comparison is per client. An
  /// empty incremental slice returns `prior` itself.
  [[nodiscard]] V4State next_v4(V4State prior,
                                const SharedV4Update& response,
                                const V4SliceUpdate& slice);

  /// kManual: moves the entries built since the last publish into the
  /// published table, which later calls read with no lock. Only while no
  /// thread calls next_v3/next_v4. kAfterBuild: nothing to do.
  void publish();

  /// Drops every entry whose prior state is referenced by the cache alone,
  /// after publish(). kManual: only while no thread calls next_v3/next_v4.
  void prune();

  /// Apply+rebuilds run so far (v3 and v4, failed v4 applies included).
  [[nodiscard]] std::uint64_t builds() const;
  /// Entries currently held (test support: the memory bound).
  [[nodiscard]] std::size_t live_entries() const;

  /// The get-or-build mutex's figures: its acquisitions (the
  /// `sync_state_locked` counter: next_v3/next_v4 calls that missed the
  /// published table) and, with lock metrics on, its wait and hold times.
  /// Only while no thread calls next_v3/next_v4.
  [[nodiscard]] obs::LockStats lock_stats() const { return mutex_.stats(); }
  /// Times the mutex's waits and holds (obs::TimedMutex). Only while no
  /// thread calls next_v3/next_v4.
  void set_lock_metrics(bool on) { mutex_.set_metrics(on); }

 private:
  /// One memo per generation: prior address -> that prior's slots.
  template <typename State, typename Response, typename Update>
  struct Memo {
    using StatePtr = std::shared_ptr<const State>;
    using Source = SharedResponse<Response>;
    using UpdateType = Update;
    struct Entry {
      StatePtr prior;  // pins the key address
      std::string list;
      std::uint64_t variant = 0;  // v3: store kind + Bloom size; v4: 0
      Source source;                   // pins *update, names its frame
      const Update* update = nullptr;  // inside *source.value
      StatePtr next;  // null: the v4 slice failed
    };
    using Table = std::unordered_map<const State*, std::vector<Entry>>;

    Table published;  ///< kManual: read lock-free, changed by publish()
    Table pending;    ///< guarded by mutex_
  };
  using V3Memo = Memo<ChunkedListState, UpdateResponse, std::vector<Chunk>>;
  using V4Memo = Memo<storage::RawHashStore, V4UpdateResponse, V4SliceUpdate>;

  /// The slot for (prior, list, variant) when it was built from `update`
  /// (carried by `source`); else runs `build(prior)` into pending.
  template <typename M, typename Build>
  [[nodiscard]] typename M::StatePtr get_or_build(
      M& memo, typename M::StatePtr prior, std::string_view list,
      std::uint64_t variant, const typename M::Source& source,
      const typename M::UpdateType& update, Build&& build);

  const Pruning pruning_;
  mutable obs::TimedMutex mutex_;
  V3Memo v3_;
  V4Memo v4_;
  std::uint64_t builds_ = 0;
  // v3 rebuild scratch, reused across builds (guarded by mutex_).
  std::vector<crypto::Prefix32> prefixes_;
  std::vector<crypto::Prefix32> subs_;
  storage::PrefixBatch batch_{4};
};

}  // namespace sbp::sb
