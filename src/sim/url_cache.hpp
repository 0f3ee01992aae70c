// The engine's per-shard URL cache (src/sim): visit id -> the URL's
// sb::LookupRequest plus its listed-prefix universe stamp.
//
// A flat open-addressed table (linear probing, load <= 1/2) of 24-byte
// slots over a dense array of entries. A slot holds the key, the index of
// its entry and the key's universe stamp, so a hit whose URL has no
// listed prefix reads one slot and never the entry's request. Every slot
// carries the generation it was written in, so clear() is a generation
// bump: the table forgets every key at once and the entries keep their
// storage, which the next misses rebuild in place -- a warm cache builds
// a missed URL without touching the heap.
// The table grows on demand (doubling) up to what `max_entries` needs; it
// never preallocates the bound, since populations set bounds far above
// the distinct URLs a shard sees.
//
// Visit ids are 1:1 with URL strings (sim/traffic_model.hpp), so the
// cache's hit/miss sequence -- and every url_cache_* counter -- is a
// function of the id sequence alone, the same as any exact map's.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sb/lookup_request.hpp"

namespace sbp::sim {

class UrlCache {
 public:
  /// One URL decomposed and hashed once, shared across all users of a
  /// shard AND passed straight into ProtocolClient::lookup -- the request
  /// is the same sb::LookupRequest every generation's lookup consumes, so
  /// a cache hit re-derives nothing.
  struct Entry {
    sb::LookupRequest request;
  };

  /// A key's listed-prefix universe stamp, kept in the key's slot so a hit
  /// reads it without touching the entry. Bit i of `hits` is set iff the
  /// entry's request.unique_prefixes()[i] is in the listed-prefix universe
  /// as of universe `version` (a request holds at most 30 unique
  /// prefixes); hits 0 = no exact client store can hit this URL. Stamped
  /// by the engine, re-stamped whenever an epoch grows the universe
  /// (version 0 = never stamped).
  struct Stamp {
    std::uint32_t hits = 0;
    std::uint32_t version = 0;
  };

  /// A live key as find() and insert() hand it back: its stamp, written in
  /// place, and the index of its entry (see entry()).
  struct Ref {
    Stamp* stamp = nullptr;  ///< null: the key is absent
    std::uint32_t entry = 0;

    explicit operator bool() const noexcept { return stamp != nullptr; }
  };

  /// `max_entries` bounds the live entries (0 = unbounded); inserting into
  /// a full cache clears it first (hot URLs repopulate).
  explicit UrlCache(std::size_t max_entries) : max_entries_(max_entries) {}

  /// The slot of `key`, or a null Ref.
  [[nodiscard]] Ref find(std::uint64_t key) noexcept {
    if (slots_.empty()) return {};
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) return {};
      if (slot.key == key) return {&slot.stamp, slot.entry};
    }
  }

  /// Adds `key` (which must not be present) with an unstamped slot. Its
  /// entry's request still holds whatever an earlier key left there: the
  /// caller rebuilds it and stamps the slot.
  [[nodiscard]] Ref insert(std::uint64_t key) {
    if (max_entries_ > 0 && size_ >= max_entries_) clear();
    if (2 * (size_ + 1) > slots_.size()) grow();
    const auto entry = static_cast<std::uint32_t>(size_);
    Slot& slot = place(key, entry, Stamp{});
    if (size_ == entries_.size()) entries_.emplace_back();
    ++size_;
    return {&slot.stamp, entry};
  }

  /// The request of `key` if the key is live and stamped at a version
  /// other than `version` (its next hit re-stamps), else null.
  [[nodiscard]] const sb::LookupRequest* stale_request(
      std::uint64_t key, std::uint32_t version) noexcept {
    const Ref ref = find(key);
    return ref && ref.stamp->version != version ? &entries_[ref.entry].request
                                                : nullptr;
  }

  /// The entry a Ref names.
  [[nodiscard]] Entry& entry(std::uint32_t index) noexcept {
    return entries_[index];
  }

  /// Forgets every key; entries keep their storage for reuse.
  void clear() noexcept {
    size_ = 0;
    if (++generation_ == 0) {  // wrapped: no stale slot may look live
      std::fill(slots_.begin(), slots_.end(), Slot{});
      generation_ = 1;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t generation = 0;  ///< live iff equal to generation_
    std::uint32_t entry = 0;       ///< index into entries_
    Stamp stamp;
  };
  // A hit whose stamp lists no prefix reads this one slot and nothing else.
  static_assert(sizeof(Slot) == 24);

  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  /// Fibonacci hashing: the top bits of key * 2^64/phi.
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  Slot& place(std::uint64_t key, std::uint32_t entry, Stamp stamp) noexcept {
    std::size_t i = home(key);
    while (slots_[i].generation == generation_) i = (i + 1) & mask();
    slots_[i] = {key, generation_, entry, stamp};
    return slots_[i];
  }

  /// Doubles the table (16 slots at first) and re-places the live keys,
  /// each with its stamp.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::uint32_t live = generation_;
    slots_.assign(std::max<std::size_t>(16, 2 * old.size()), Slot{});
    shift_ = 64 - std::countr_zero(slots_.size());
    generation_ = 1;
    for (const Slot& slot : old) {
      if (slot.generation == live) place(slot.key, slot.entry, slot.stamp);
    }
  }

  std::size_t max_entries_;
  std::vector<Slot> slots_;  ///< power-of-two size, or empty
  std::vector<Entry> entries_;  ///< entries_[0, size_) are live
  std::size_t size_ = 0;
  std::uint32_t generation_ = 1;
  int shift_ = 64;
};

}  // namespace sbp::sim
