// The engine's per-shard URL cache (src/sim): visit id -> the URL's
// sb::LookupRequest plus its listed-prefix universe stamp.
//
// A flat open-addressed table (linear probing, load <= 1/2) of 24-byte
// slots over a dense array of entries. A slot holds the key, the index of
// its entry, the key's universe stamp and its second-chance bit, so a hit
// whose URL has no listed prefix reads -- and writes -- one slot and never
// the entry's request.
// The table grows on demand (doubling) up to what `max_entries` needs; it
// never preallocates the bound, since populations set bounds far above
// the distinct URLs a shard sees. A full cache evicts by second chance
// (CLOCK): a hit sets its slot's referenced bit, and an insert sweeps a
// hand over the slot table, clearing each referenced bit it passes, until
// it meets an unreferenced slot. That key leaves the table (backward-shift
// deletion) and the new key takes over its entry in
// place, so hot URLs stay cached across refills and a warm miss rebuilds
// an entry without touching the heap.
//
// Visit ids are 1:1 with URL strings (sim/traffic_model.hpp), and only
// find() and insert() move the policy -- the engine's prefetch pass reads
// through stale_request(), which marks nothing -- so the cache's hit/miss
// sequence, and every url_cache_* counter, is a function of the dispatched
// id sequence alone.
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
  /// a full cache evicts one key by second chance.
  explicit UrlCache(std::size_t max_entries) : max_entries_(max_entries) {}

  /// The slot of `key`, marked referenced, or a null Ref.
  [[nodiscard]] Ref find(std::uint64_t key) noexcept {
    Slot* slot = slot_of(key);
    if (slot == nullptr) return {};
    slot->referenced = true;
    return {&slot->stamp, slot->entry};
  }

  /// Adds `key` (which must not be present) with an unstamped, unreferenced
  /// slot. Its entry's request still holds whatever an earlier key left
  /// there: the caller rebuilds it and stamps the slot.
  [[nodiscard]] Ref insert(std::uint64_t key) {
    if (max_entries_ > 0 && entries_.size() >= max_entries_) {
      const std::uint32_t entry = evict();
      return {&place({key, entry, false, {}}).stamp, entry};
    }
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    const auto entry = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
    return {&place({key, entry, false, {}}).stamp, entry};
  }

  /// The request of `key` if the key is live and stamped at a version
  /// other than `version` (its next hit re-stamps), else null. Marks
  /// nothing: a look ahead must not change what the cache evicts.
  [[nodiscard]] const sb::LookupRequest* stale_request(
      std::uint64_t key, std::uint32_t version) noexcept {
    const Slot* slot = slot_of(key);
    return slot != nullptr && slot->stamp.version != version
               ? &entries_[slot->entry].request
               : nullptr;
  }

  /// The entry a Ref names.
  [[nodiscard]] Entry& entry(std::uint32_t index) noexcept {
    return entries_[index];
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t entry = kEmpty;  ///< index into entries_; kEmpty: no key
    bool referenced = false;       ///< hit since the hand last passed
    Stamp stamp;
  };
  // A hit whose stamp lists no prefix reads this one slot and nothing else.
  static_assert(sizeof(Slot) == 24);

  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  /// Fibonacci hashing: the top bits of key * 2^64/phi.
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  [[nodiscard]] Slot* slot_of(std::uint64_t key) noexcept {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& slot = slots_[i];
      if (slot.entry == kEmpty) return nullptr;
      if (slot.key == key) return &slot;
    }
  }

  Slot& place(const Slot& slot) noexcept {
    std::size_t i = home(slot.key);
    while (slots_[i].entry != kEmpty) i = (i + 1) & mask();
    slots_[i] = slot;
    return slots_[i];
  }

  /// Sweeps the hand to the first unreferenced slot, clearing the
  /// referenced bits it passes, removes that key and returns its entry.
  /// The hand stays on the hole, which the shift may refill with a slot it
  /// has not passed yet.
  [[nodiscard]] std::uint32_t evict() noexcept {
    for (;; hand_ = (hand_ + 1) & mask()) {
      Slot& slot = slots_[hand_];
      if (slot.entry == kEmpty) continue;
      if (slot.referenced) {
        slot.referenced = false;
        continue;
      }
      const std::uint32_t entry = slot.entry;
      erase(hand_);
      return entry;
    }
  }

  /// Backward-shift deletion: pull each later slot of the probe run whose
  /// home is not after the hole into it, so no run is broken.
  void erase(std::size_t i) noexcept {
    for (std::size_t j = (i + 1) & mask(); slots_[j].entry != kEmpty;
         j = (j + 1) & mask()) {
      if (((j - home(slots_[j].key)) & mask()) >= ((j - i) & mask())) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].entry = kEmpty;
  }

  /// Doubles the table (16 slots at first) and re-places the live keys,
  /// each with its stamp and referenced bit.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, 2 * old.size()), Slot{});
    shift_ = 64 - std::countr_zero(slots_.size());
    hand_ = 0;
    for (const Slot& slot : old) {
      if (slot.entry != kEmpty) place(slot);
    }
  }

  std::size_t max_entries_;
  std::vector<Slot> slots_;     ///< power-of-two size, or empty
  std::vector<Entry> entries_;  ///< one per live key, reused by evictions
  std::size_t hand_ = 0;        ///< the CLOCK hand: a slot index
  int shift_ = 64;
};

}  // namespace sbp::sim
