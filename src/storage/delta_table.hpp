// Delta-coded prefix table (paper Section 2.2.2, Table 2).
//
// Chromium replaced the Bloom filter with a sorted, delta-encoded prefix
// table: dynamic, no intrinsic false positives, and *smaller* at 32-bit
// width (paper: 1.3 MB vs 2.5 MB raw, compression ratio 1.9) at the cost of
// slower queries. For prefixes wider than 32 bits, only the leading 32 bits
// delta-compress usefully (the tail of a truncated digest is uniformly
// random), so wider entries store "varint gap of the 32-bit head + raw tail
// bytes" -- this reproduces Table 2's sizes: at 64 bits ~6 B/entry (3.9 MB),
// at 256 bits ~30 B/entry (19.1 MB), where Bloom's constant 3 MB wins.
//
// Layout:
//   index_:  every kIndexStride-th entry's (head32, byte offset, ordinal)
//   deltas_: per entry, varint gap from the previous head32 + raw tail bytes
// Queries binary-search the index, then linearly decode <= kIndexStride
// entries -- the "slower than Bloom" behaviour the paper notes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "storage/prefix_store.hpp"

namespace sbp::storage {

class DeltaCodedTable final : public PrefixStore {
 public:
  static constexpr std::size_t kIndexStride = 64;

  /// `batch` must be sort_unique()'d.
  explicit DeltaCodedTable(const PrefixBatch& batch);

  [[nodiscard]] std::size_t prefix_bytes() const noexcept override {
    return stride_;
  }
  /// Sorted probe: queries are visited in ascending order against a
  /// single resumable decode cursor, so one index binary search and one
  /// block decode are shared by every query landing in the same region --
  /// the batch amortization of the "slower than Bloom" per-query cost.
  void contains_many(std::span<const std::uint8_t> flat,
                     std::span<bool> out) const noexcept override;
  [[nodiscard]] std::size_t size() const noexcept override { return count_; }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override;

  /// Size of just the varint+tail payload (no index); used by the Table 2
  /// bench to report the "pure" delta-coded size alongside the indexed one.
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return deltas_.size();
  }

 private:
  struct IndexEntry {
    std::uint32_t head;        ///< 32-bit head value of the entry
    std::uint32_t byte_offset; ///< offset of the entry in deltas_
    std::uint32_t ordinal;     ///< entry index
  };

  /// Resumable forward decode position for the sorted-probe batch walk.
  struct Cursor {
    std::size_t offset = 0;       ///< next varint to decode in deltas_
    std::size_t ordinal = 0;      ///< ordinal of the next entry to decode
    std::uint32_t head = 0;       ///< head of the last decoded entry
    const std::uint8_t* tail = nullptr;  ///< its tail bytes (stride > 4)
    bool loaded = false;          ///< a current entry is decoded
  };

  /// Positions `cursor` at the start of index block `block`.
  void seek_block(Cursor& cursor, std::size_t block) const noexcept;
  /// Decodes the next entry into the cursor; false on end or corruption.
  bool advance(Cursor& cursor, std::size_t tail_len) const noexcept;
  /// The index block a sorted-probe walk should decode from for
  /// `target_head`, or npos when target_head precedes the first entry.
  [[nodiscard]] std::size_t block_for(std::uint32_t target_head)
      const noexcept;

  std::size_t stride_;
  std::size_t count_ = 0;
  std::vector<IndexEntry> index_;
  std::vector<std::uint8_t> deltas_;
};

}  // namespace sbp::storage
