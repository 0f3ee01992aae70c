#include "storage/delta_table.hpp"

#include <algorithm>
#include <cstring>

#include "util/varint.hpp"

namespace sbp::storage {

namespace {

std::uint32_t head32_of(std::span<const std::uint8_t> entry) noexcept {
  std::uint32_t value = 0;
  const std::size_t n = std::min<std::size_t>(4, entry.size());
  for (std::size_t i = 0; i < n; ++i) value = (value << 8) | entry[i];
  // Narrow (<4 byte) prefixes occupy the low bits; widths are uniform within
  // a table so ordering is unaffected.
  return value;
}

}  // namespace

DeltaCodedTable::DeltaCodedTable(const PrefixBatch& batch)
    : stride_(batch.prefix_bytes()), count_(batch.size()) {
  const std::size_t tail_len = stride_ > 4 ? stride_ - 4 : 0;
  std::uint32_t previous_head = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const auto entry = batch.entry(i);
    const std::uint32_t head = head32_of(entry);
    if (i % kIndexStride == 0) {
      index_.push_back({head, static_cast<std::uint32_t>(deltas_.size()),
                        static_cast<std::uint32_t>(i)});
      // Index entries restart delta coding so decoding can begin anywhere.
      util::varint_encode(0, deltas_);
    } else {
      util::varint_encode(head - previous_head, deltas_);
    }
    previous_head = head;
    if (tail_len > 0) {
      deltas_.insert(deltas_.end(), entry.data() + 4,
                     entry.data() + 4 + tail_len);
    }
  }
}

void DeltaCodedTable::seek_block(Cursor& cursor,
                                 std::size_t block) const noexcept {
  cursor.offset = index_[block].byte_offset;
  cursor.ordinal = index_[block].ordinal;
  cursor.head = 0;
  cursor.tail = nullptr;
  cursor.loaded = false;
}

bool DeltaCodedTable::advance(Cursor& cursor,
                              std::size_t tail_len) const noexcept {
  if (cursor.ordinal >= count_) return false;
  const auto gap = util::varint_decode(deltas_, cursor.offset);
  if (!gap) return false;  // corrupt table
  if (cursor.ordinal % kIndexStride == 0) {
    // Restart entry: gap is 0, absolute head comes from the index.
    cursor.head = index_[cursor.ordinal / kIndexStride].head;
  } else {
    cursor.head += static_cast<std::uint32_t>(*gap);
  }
  cursor.tail = deltas_.data() + cursor.offset;
  cursor.offset += tail_len;
  ++cursor.ordinal;
  cursor.loaded = true;
  return true;
}

std::size_t DeltaCodedTable::block_for(
    std::uint32_t target_head) const noexcept {
  auto it = std::upper_bound(
      index_.begin(), index_.end(), target_head,
      [](std::uint32_t value, const IndexEntry& e) { return value < e.head; });
  if (it == index_.begin()) return static_cast<std::size_t>(-1);
  --it;
  // Entries with equal heads but different tails (widths > 32 bits) can
  // straddle block boundaries; back up to the first block of the run.
  while (it != index_.begin() && it->head == target_head) --it;
  return static_cast<std::size_t>(it - index_.begin());
}

void DeltaCodedTable::contains_many(std::span<const std::uint8_t> flat,
                                    std::span<bool> out) const noexcept {
  const std::size_t n = stride_ == 0 ? 0 : flat.size() / stride_;
  if (n == 0) return;
  if (count_ == 0) {
    std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n),
              false);
    return;
  }
  const std::size_t tail_len = stride_ > 4 ? stride_ - 4 : 0;
  const std::uint8_t* queries = flat.data();
  const std::size_t stride = stride_;

  BatchOrder scratch;
  const auto order =
      scratch.sorted(n, [queries, stride](std::uint32_t a, std::uint32_t b) {
        return compare_prefix(queries + a * stride, queries + b * stride,
                              stride) < 0;
      });

  // One forward decode cursor shared by the whole (ascending) batch: for
  // each query, jump via the index only when the target's block lies
  // beyond everything decoded so far, then walk entries -- every entry
  // skipped on the way to query k is provably smaller than every query
  // after k, so the cursor never needs to back up.
  Cursor cursor;
  for (const std::uint32_t q : order) {
    const std::uint8_t* query = queries + q * stride;
    const std::uint32_t target_head = head32_of({query, stride});

    const std::size_t block = block_for(target_head);
    if (block == static_cast<std::size_t>(-1)) {
      out[q] = false;  // precedes the first entry
      continue;
    }
    const std::size_t block_ordinal = index_[block].ordinal;
    const std::size_t decoded_through =
        cursor.loaded ? cursor.ordinal : 0;  // ordinal is one past current
    if (!cursor.loaded || block_ordinal >= decoded_through) {
      seek_block(cursor, block);
    }

    bool found = false;
    while (true) {
      if (!cursor.loaded && !advance(cursor, tail_len)) break;
      // Compare the current entry against the query, head first.
      if (cursor.head > target_head) break;
      if (cursor.head == target_head) {
        const int tail_cmp =
            tail_len == 0
                ? 0
                : std::memcmp(cursor.tail, query + 4, tail_len);
        if (tail_cmp == 0) {
          found = true;
          break;
        }
        if (tail_cmp > 0) break;  // entry > query
      }
      // Entry < query: consume it and decode the next one.
      cursor.loaded = false;
    }
    out[q] = found;
  }
}

std::size_t DeltaCodedTable::memory_bytes() const noexcept {
  return deltas_.size() + index_.size() * sizeof(IndexEntry);
}

}  // namespace sbp::storage
