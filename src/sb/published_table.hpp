// The publish-at-the-barrier table behind the re-sync path's shared caches
// (sb::Server's update encode cache, both generations of
// sb::SyncStateCache): a get-or-build memo that many threads read at once.
//
// Its slots live in two tables:
//   * published -- read with no lock (find()), and changed only by
//     publish(), clear() and prune() at quiescent points (sim::Engine: the
//     tick barrier);
//   * pending -- behind one obs::TimedMutex. get_or_build() takes it,
//     probes published and pending, and on a miss builds into pending, so
//     concurrent callers asking for one key see exactly one build.
// publish() moves pending into published: a pending slot replaces the
// published slot of its key (a rebuild of a slot that no longer fit). A
// slot is always replaced together with its stored key, so a key may view
// memory that its own slot keeps alive.
// The mutex's acquisitions are the get_or_build() calls -- the calls that
// missed the published table -- so with publish points fixed by the
// program, which calls lock never depends on thread interleaving.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/lock.hpp"

namespace sbp::sb {

/// `Hash` and `Equal` may be transparent: every probe takes any key type
/// they accept, and a stored key is made (`Key(key)`) only on a build.
template <typename Key, typename Slot, typename Hash = std::hash<Key>,
          typename Equal = std::equal_to<>>
class PublishedTable {
 public:
  using Map = std::unordered_map<Key, Slot, Hash, Equal>;

  /// The published slot of `key`, or null. Takes no lock; never concurrent
  /// with publish(), clear() or prune().
  template <typename K>
  [[nodiscard]] const Slot* find(const K& key) const {
    if (published_.empty()) return nullptr;
    const auto it = published_.find(key);
    return it == published_.end() ? nullptr : &it->second;
  }

  /// Under the mutex: the published or pending slot of `key` that `fits`
  /// accepts; else drops the pending slot that did not fit and runs
  /// `build()` (counted in builds()), which returns the slot to store in
  /// pending under `key`, or nullopt to store nothing and return Slot{}.
  /// `build` may clear() the table: the slot is stored after it returns.
  template <typename K, typename Fits, typename Build>
  [[nodiscard]] Slot get_or_build(const K& key, Fits&& fits, Build&& build) {
    const obs::TimedMutex::Guard lock(mutex_);
    if (const Slot* slot = find(key); slot && fits(*slot)) return *slot;
    if (const auto pending = pending_.find(key); pending != pending_.end()) {
      if (fits(pending->second)) return pending->second;
      pending_.erase(pending);
    }
    ++builds_;
    std::optional<Slot> built = build();
    if (!built) return Slot{};
    return pending_.emplace(Key(key), std::move(*built)).first->second;
  }

  /// Moves pending into published. Only at a quiescent point.
  void publish() {
    for (const auto& [key, slot] : pending_) published_.erase(key);
    published_.merge(pending_);
  }

  /// Drops both tables. Only at a quiescent point, or from inside a build.
  void clear() noexcept {
    published_.clear();
    pending_.clear();
  }

  /// The published slots (after publish(): every slot). Only at a
  /// quiescent point.
  [[nodiscard]] const Map& published() const noexcept { return published_; }

  /// Drops every published slot for which `drop(key, slot)` holds, deciding
  /// all of them before dropping any. Only at a quiescent point.
  template <typename Drop>
  void prune(Drop&& drop) {
    std::vector<typename Map::const_iterator> doomed;
    for (auto it = published_.cbegin(); it != published_.cend(); ++it) {
      if (drop(it->first, it->second)) doomed.push_back(it);
    }
    for (const auto it : doomed) published_.erase(it);
  }

  /// Slots held in both tables. Only at a quiescent point.
  [[nodiscard]] std::size_t size() const noexcept {
    return published_.size() + pending_.size();
  }
  /// build() calls so far. Only at a quiescent point.
  [[nodiscard]] std::uint64_t builds() const noexcept { return builds_; }

  /// The mutex's figures: its acquisitions (the get_or_build() calls) and,
  /// with lock metrics on, its wait and hold times. Only at a quiescent
  /// point.
  [[nodiscard]] obs::LockStats lock_stats() const { return mutex_.stats(); }
  /// Times the mutex's waits and holds. Only at a quiescent point.
  void set_lock_metrics(bool on) { mutex_.set_metrics(on); }

 private:
  Map published_;
  Map pending_;  ///< guarded by mutex_
  std::uint64_t builds_ = 0;  ///< guarded by mutex_
  obs::TimedMutex mutex_;
};

}  // namespace sbp::sb
