#include "storage/raw_hash_store.hpp"

#include <algorithm>

#include "storage/prefix_store.hpp"  // BatchOrder

namespace sbp::storage {

namespace {

bool strictly_increasing(std::span<const std::uint32_t> values) {
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] <= values[i - 1]) return false;
  }
  return true;
}

}  // namespace

bool RawHashStore::reset(std::vector<crypto::Prefix32> sorted) {
  if (!strictly_increasing(sorted)) {
    clear();
    return false;
  }
  sorted_ = std::move(sorted);
  checksum_ = checksum_of(sorted_);
  return true;
}

std::optional<RawHashStore> RawHashStore::sliced(
    std::span<const std::uint32_t> removal_indices,
    std::span<const crypto::Prefix32> additions) const {
  if (!strictly_increasing(removal_indices) ||
      !strictly_increasing(additions)) {
    return std::nullopt;
  }
  if (!removal_indices.empty() && removal_indices.back() >= sorted_.size()) {
    return std::nullopt;
  }

  // One strictness-checked merge of the removal pass's survivors with the
  // additions -- one allocation, O(n + m).
  RawHashStore next;
  std::vector<crypto::Prefix32>& merged = next.sorted_;
  merged.reserve(sorted_.size() - removal_indices.size() + additions.size());
  std::size_t i = 0, j = 0, r = 0;
  while (true) {
    while (i < sorted_.size() && r < removal_indices.size() &&
           removal_indices[r] == i) {
      ++i;
      ++r;
    }
    if (i == sorted_.size() && j == additions.size()) break;
    if (j == additions.size() ||
        (i < sorted_.size() && sorted_[i] < additions[j])) {
      merged.push_back(sorted_[i++]);
    } else if (i == sorted_.size() || additions[j] < sorted_[i]) {
      merged.push_back(additions[j++]);
    } else {
      return std::nullopt;  // addition already present: corrupt slice
    }
  }
  next.checksum_ = checksum_of(merged);
  return next;
}

void RawHashStore::contains_many32(std::span<const crypto::Prefix32> prefixes,
                                   std::span<bool> out) const noexcept {
  const std::size_t n = prefixes.size();
  if (n == 0) return;
  probe_sorted(
      n, out,
      [&prefixes](std::uint32_t a, std::uint32_t b) {
        return prefixes[a] < prefixes[b];
      },
      [this, &prefixes](std::size_t& lo, std::uint32_t q) {
        const auto first = sorted_.begin();
        lo = static_cast<std::size_t>(
            std::lower_bound(first + lo, sorted_.end(), prefixes[q]) - first);
        return lo < sorted_.size() && sorted_[lo] == prefixes[q];
      });
}

std::uint32_t RawHashStore::checksum_of(
    std::span<const crypto::Prefix32> sorted) noexcept {
  std::uint32_t hash = 2166136261u;  // FNV offset basis
  for (const auto prefix : sorted) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      hash ^= (prefix >> shift) & 0xFFu;
      hash *= 16777619u;  // FNV prime
    }
  }
  return hash;
}

}  // namespace sbp::storage
