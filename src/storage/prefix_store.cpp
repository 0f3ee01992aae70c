#include "storage/prefix_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "storage/bloom_filter.hpp"
#include "storage/delta_table.hpp"

namespace sbp::storage {

void PrefixStore::contains_many32(std::span<const crypto::Prefix32> prefixes,
                                  std::span<bool> out) const noexcept {
  if (prefix_bytes() != 4) {
    std::fill(out.begin(), out.begin() + prefixes.size(), false);
    return;
  }
  // Pack up to 64 prefixes big-endian on the stack per contains_many call.
  constexpr std::size_t kChunk = 64;
  std::uint8_t flat[kChunk * 4];
  for (std::size_t base = 0; base < prefixes.size(); base += kChunk) {
    const std::size_t count = std::min(kChunk, prefixes.size() - base);
    for (std::size_t i = 0; i < count; ++i) {
      const crypto::Prefix32 prefix = prefixes[base + i];
      flat[i * 4] = static_cast<std::uint8_t>(prefix >> 24);
      flat[i * 4 + 1] = static_cast<std::uint8_t>(prefix >> 16);
      flat[i * 4 + 2] = static_cast<std::uint8_t>(prefix >> 8);
      flat[i * 4 + 3] = static_cast<std::uint8_t>(prefix);
    }
    contains_many(std::span<const std::uint8_t>(flat, count * 4),
                  out.subspan(base, count));
  }
}

bool PrefixStore::contains(
    std::span<const std::uint8_t> prefix) const noexcept {
  if (prefix.size() != prefix_bytes()) return false;
  bool hit = false;
  contains_many(prefix, std::span<bool>(&hit, 1));
  return hit;
}

bool PrefixStore::contains32(crypto::Prefix32 prefix) const noexcept {
  bool hit = false;
  contains_many32(std::span<const crypto::Prefix32>(&prefix, 1),
                  std::span<bool>(&hit, 1));
  return hit;
}

PrefixBatch::PrefixBatch(std::size_t prefix_bytes) : stride_(prefix_bytes) {
  if (prefix_bytes == 0 || prefix_bytes > 32) {
    throw std::invalid_argument("PrefixBatch: stride must be in [1, 32]");
  }
}

void PrefixBatch::add(std::span<const std::uint8_t> prefix) {
  if (prefix.size() != stride_) {
    throw std::invalid_argument("PrefixBatch::add: wrong prefix width");
  }
  data_.insert(data_.end(), prefix.begin(), prefix.end());
}

void PrefixBatch::add32(crypto::Prefix32 prefix) {
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(prefix >> 24),
      static_cast<std::uint8_t>(prefix >> 16),
      static_cast<std::uint8_t>(prefix >> 8),
      static_cast<std::uint8_t>(prefix),
  };
  add(std::span<const std::uint8_t>(bytes, 4));
}

void PrefixBatch::add_digest(const crypto::Digest256& digest) {
  add(std::span<const std::uint8_t>(digest.bytes().data(), stride_));
}

void PrefixBatch::assign_sorted32(std::span<const crypto::Prefix32> sorted) {
  if (stride_ != 4) {
    throw std::invalid_argument("PrefixBatch::assign_sorted32: stride != 4");
  }
  data_.resize(sorted.size() * 4);
  std::uint8_t* out = data_.data();
  for (const auto prefix : sorted) {
    *out++ = static_cast<std::uint8_t>(prefix >> 24);
    *out++ = static_cast<std::uint8_t>(prefix >> 16);
    *out++ = static_cast<std::uint8_t>(prefix >> 8);
    *out++ = static_cast<std::uint8_t>(prefix);
  }
}

void PrefixBatch::sort_unique() {
  const std::size_t n = size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  const std::uint8_t* base = data_.data();
  const std::size_t stride = stride_;
  std::sort(order.begin(), order.end(),
            [base, stride](std::size_t a, std::size_t b) {
              return std::memcmp(base + a * stride, base + b * stride,
                                 stride) < 0;
            });
  std::vector<std::uint8_t> sorted;
  sorted.reserve(data_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* entry = base + order[i] * stride;
    if (!sorted.empty() &&
        std::memcmp(sorted.data() + sorted.size() - stride, entry, stride) ==
            0) {
      continue;  // duplicate
    }
    sorted.insert(sorted.end(), entry, entry + stride);
  }
  data_ = std::move(sorted);
}

RawSortedStore::RawSortedStore(const PrefixBatch& batch)
    : stride_(batch.prefix_bytes()),
      data_(batch.flat().begin(), batch.flat().end()) {}

void RawSortedStore::contains_many(std::span<const std::uint8_t> flat,
                                   std::span<bool> out) const noexcept {
  const std::size_t n = flat.size() / stride_;
  if (n == 0) return;
  const std::size_t count = data_.size() / stride_;
  const std::uint8_t* queries = flat.data();
  const std::uint8_t* entries = data_.data();
  const std::size_t stride = stride_;

  probe_sorted(
      n, out,
      [queries, stride](std::uint32_t a, std::uint32_t b) {
        return compare_prefix(queries + a * stride, queries + b * stride,
                              stride) < 0;
      },
      [=](std::size_t& lo, std::uint32_t q) {
        const std::uint8_t* query = queries + q * stride;
        std::size_t right = count;
        while (lo < right) {
          const std::size_t mid = lo + (right - lo) / 2;
          if (compare_prefix(entries + mid * stride, query, stride) < 0) {
            lo = mid + 1;
          } else {
            right = mid;
          }
        }
        return lo < count &&
               compare_prefix(entries + lo * stride, query, stride) == 0;
      });
}

std::unique_ptr<PrefixStore> make_store(StoreKind kind,
                                        const PrefixBatch& sorted_batch,
                                        std::size_t bloom_bits) {
  switch (kind) {
    case StoreKind::kRawSorted:
      return std::make_unique<RawSortedStore>(sorted_batch);
    case StoreKind::kDeltaCoded:
      return std::make_unique<DeltaCodedTable>(sorted_batch);
    case StoreKind::kBloom: {
      const std::size_t bits =
          bloom_bits != 0 ? bloom_bits : BloomFilter::kChromiumDefaultBits;
      return std::make_unique<BloomFilter>(sorted_batch, bits);
    }
  }
  return nullptr;
}

}  // namespace sbp::storage
