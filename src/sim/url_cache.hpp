// The engine's per-shard URL cache (src/sim): visit id -> the URL's
// sb::LookupRequest plus its listed-prefix universe stamp.
//
// A flat open-addressed table (linear probing, load <= 1/2) over a dense
// array of entries. Every slot carries the generation it was written in,
// so clear() is a generation bump: the table forgets every key at once
// and the entries keep their storage, which the next misses rebuild in
// place -- a warm cache builds a missed URL without touching the heap.
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
    /// Bit i set iff request.unique_prefixes()[i] is in the listed-prefix
    /// universe as of `universe_version` (a request holds at most 30
    /// unique prefixes); 0 = no client store can hit this URL. Stamped by
    /// the engine, re-validated whenever an epoch grows the universe
    /// (0 = never stamped).
    std::uint32_t universe_hits = 0;
    std::uint64_t universe_version = 0;
  };

  /// `max_entries` bounds the live entries (0 = unbounded); inserting into
  /// a full cache clears it first (hot URLs repopulate).
  explicit UrlCache(std::size_t max_entries) : max_entries_(max_entries) {}

  /// The entry of `key`, or null.
  [[nodiscard]] Entry* find(std::uint64_t key) noexcept {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const Slot& slot = slots_[i];
      if (slot.generation != generation_) return nullptr;
      if (slot.key == key) return &entries_[slot.entry];
    }
  }

  /// Adds `key` (which must not be present) and returns its entry, whose
  /// request and stamp still hold whatever an earlier key left there: the
  /// caller rebuilds both.
  [[nodiscard]] Entry& insert(std::uint64_t key) {
    if (max_entries_ > 0 && size_ >= max_entries_) clear();
    if (2 * (size_ + 1) > slots_.size()) grow();
    place(key, static_cast<std::uint32_t>(size_));
    if (size_ == entries_.size()) entries_.emplace_back();
    return entries_[size_++];
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
  };

  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  /// Fibonacci hashing: the top bits of key * 2^64/phi.
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void place(std::uint64_t key, std::uint32_t entry) noexcept {
    std::size_t i = home(key);
    while (slots_[i].generation == generation_) i = (i + 1) & mask();
    slots_[i] = {key, generation_, entry};
  }

  /// Doubles the table (16 slots at first) and re-places the live keys.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::uint32_t live = generation_;
    slots_.assign(std::max<std::size_t>(16, 2 * old.size()), Slot{});
    shift_ = 64 - std::countr_zero(slots_.size());
    generation_ = 1;
    for (const Slot& slot : old) {
      if (slot.generation == live) place(slot.key, slot.entry);
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
