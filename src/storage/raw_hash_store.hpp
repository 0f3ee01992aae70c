// Client-side raw-hash store for the v4 sliced-update protocol.
//
// Where v3 clients reassemble their database from numbered chunks, a v4
// client holds ONE sorted array of 32-bit hash prefixes per list and
// applies server "slices": removals as indices into the current sorted
// array, additions as new values (Rice-compressed on the wire). After each
// application the client verifies a checksum of the whole set and, on
// mismatch, throws its state away and full-syncs -- exactly the Update
// API's recovery discipline.
//
// The checksum is computed once per content change (reset / slice /
// clear), so the per-update verification and every list_checksum() read
// cost nothing -- and an immutable store shared by many clients carries
// its checksum with it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/digest.hpp"

namespace sbp::storage {

class RawHashStore {
 public:
  /// Replaces the whole set. `sorted` must be strictly increasing;
  /// returns false (store cleared) otherwise.
  [[nodiscard]] bool reset(std::vector<crypto::Prefix32> sorted);

  /// The store one slice turns *this into: drops the entries at
  /// `removal_indices` (strictly increasing, in range), then merges
  /// `additions` (strictly increasing, none already present). nullopt on
  /// any violation.
  [[nodiscard]] std::optional<RawHashStore> sliced(
      std::span<const std::uint32_t> removal_indices,
      std::span<const crypto::Prefix32> additions) const;

  void clear() noexcept {
    sorted_.clear();
    checksum_ = kEmptyChecksum;
  }

  /// Batch membership: out[i] = whether prefixes[i] is stored, amortizing
  /// the binary searches across a sorted probe order (see
  /// storage::PrefixStore::contains_many). Batches may be empty, unsorted
  /// and contain duplicates.
  void contains_many32(std::span<const crypto::Prefix32> prefixes,
                       std::span<bool> out) const noexcept;

  /// A batch of one.
  [[nodiscard]] bool contains(crypto::Prefix32 prefix) const noexcept {
    bool hit = false;
    contains_many32(std::span<const crypto::Prefix32>(&prefix, 1),
                    std::span<bool>(&hit, 1));
    return hit;
  }

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return sorted_.size() * sizeof(crypto::Prefix32);
  }
  [[nodiscard]] const std::vector<crypto::Prefix32>& prefixes()
      const noexcept {
    return sorted_;
  }

  /// checksum_of(prefixes()), cached at the last content change.
  [[nodiscard]] std::uint32_t checksum() const noexcept { return checksum_; }

  /// FNV-1a (32-bit) over the big-endian bytes of a sorted prefix set --
  /// the stand-in for v4's sha256 state checksum, computed identically by
  /// server and client.
  [[nodiscard]] static std::uint32_t checksum_of(
      std::span<const crypto::Prefix32> sorted) noexcept;

 private:
  static constexpr std::uint32_t kEmptyChecksum = 2166136261u;  // FNV basis

  std::vector<crypto::Prefix32> sorted_;
  std::uint32_t checksum_ = kEmptyChecksum;
};

}  // namespace sbp::storage
