// Client-side prefix storage (paper Section 2.2.2).
//
// Chromium stored the blacklist prefixes first in a Bloom filter
// (discontinued September 2012), then in a delta-coded table. Table 2 of the
// paper compares raw, delta-coded and Bloom representations across prefix
// widths (32..256 bits); this header defines the common interface plus the
// raw baseline.
//
// All stores hold fixed-width truncated digests ("prefixes"). Entries are
// passed as raw big-endian byte strings of exactly `prefix_bytes()` bytes.
// Each store implements membership once, as the batch `contains_many`; the
// scalar and 32-bit spellings are thin wrappers over that one path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "crypto/digest.hpp"

namespace sbp::storage {

/// Which concrete representation a Safe Browsing client uses locally.
enum class StoreKind {
  kRawSorted,   ///< sorted flat array (baseline, "Raw data" in Table 2)
  kDeltaCoded,  ///< Chromium's current choice (paper: 1.3 MB at 32 bits)
  kBloom,       ///< Chromium pre-2012 (paper: constant 3 MB)
};

/// Three-way comparison of two `stride`-byte prefixes in lexicographic
/// order, like memcmp. The protocol's 4-byte prefixes compare as one
/// big-endian word instead of through memcmp: this comparison is the inner
/// step of the sorted probes' query sort and binary search.
[[nodiscard]] inline int compare_prefix(const std::uint8_t* a,
                                        const std::uint8_t* b,
                                        std::size_t stride) noexcept {
  if (stride == 4) {
    const auto word = [](const std::uint8_t* p) noexcept {
      return (static_cast<std::uint32_t>(p[0]) << 24) |
             (static_cast<std::uint32_t>(p[1]) << 16) |
             (static_cast<std::uint32_t>(p[2]) << 8) |
             static_cast<std::uint32_t>(p[3]);
    };
    const std::uint32_t x = word(a);
    const std::uint32_t y = word(b);
    return (x > y) - (x < y);
  }
  return std::memcmp(a, b, stride);
}

/// Abstract prefix membership store.
///
/// Membership has ONE implementation per store: the batch `contains_many`,
/// which answers a whole query batch in one call so sorted-probe stores
/// amortize their index searches across it (the simulation engine's hot
/// path queries every decomposition of a URL at once). `contains`,
/// `contains32` and `contains_many32` are non-virtual spellings of that
/// same call -- a batch of one, or 32-bit prefixes packed big-endian -- so
/// every spelling answers identically, Bloom false positives included
/// (they are a pure function of the queried bytes). Batches may be empty,
/// unsorted and contain duplicates.
class PrefixStore {
 public:
  virtual ~PrefixStore() = default;

  /// Width of stored prefixes in bytes (4 for the wire protocol).
  [[nodiscard]] virtual std::size_t prefix_bytes() const noexcept = 0;

  /// Batch membership over `flat` = N concatenated prefix_bytes()-wide
  /// entries; writes out[i] = whether entry i is stored. `out` must hold
  /// exactly N elements. Bloom filters may return false positives; exact
  /// stores never do.
  virtual void contains_many(std::span<const std::uint8_t> flat,
                             std::span<bool> out) const noexcept = 0;

  /// contains_many over the protocol's 32-bit prefixes (all false unless
  /// prefix_bytes() == 4). `out` must hold prefixes.size() elements.
  void contains_many32(std::span<const crypto::Prefix32> prefixes,
                       std::span<bool> out) const noexcept;

  /// A batch of one; false unless `prefix` has exactly prefix_bytes()
  /// bytes.
  [[nodiscard]] bool contains(
      std::span<const std::uint8_t> prefix) const noexcept;

  /// A batch of one 32-bit prefix (false unless prefix_bytes() == 4).
  [[nodiscard]] bool contains32(crypto::Prefix32 prefix) const noexcept;

  /// Number of entries inserted at build time.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Total bytes of the in-memory representation (payload + indexes),
  /// the quantity reported in Table 2.
  [[nodiscard]] virtual std::size_t memory_bytes() const noexcept = 0;
};

/// Builder input: fixed-stride concatenated big-endian prefix bytes.
/// Helper to collect and sort them before handing to a store.
class PrefixBatch {
 public:
  explicit PrefixBatch(std::size_t prefix_bytes);

  void add(std::span<const std::uint8_t> prefix);
  void add32(crypto::Prefix32 prefix);
  void add_digest(const crypto::Digest256& digest);

  /// Sorts lexicographically and removes duplicates.
  void sort_unique();

  /// Replaces the contents with `sorted` (which must already be sorted
  /// and deduplicated, as ChunkStore::effective_prefixes produces), in
  /// one pass and reusing the existing allocation -- the store-rebuild
  /// hot path; equivalent to clear + add32 loop + sort_unique. Requires
  /// prefix_bytes() == 4.
  void assign_sorted32(std::span<const crypto::Prefix32> sorted);

  [[nodiscard]] std::size_t prefix_bytes() const noexcept { return stride_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return data_.size() / stride_;
  }
  [[nodiscard]] std::span<const std::uint8_t> flat() const noexcept {
    return data_;
  }
  [[nodiscard]] std::span<const std::uint8_t> entry(
      std::size_t i) const noexcept {
    return {data_.data() + i * stride_, stride_};
  }

 private:
  std::size_t stride_;
  std::vector<std::uint8_t> data_;
};

/// Sorted flat-array store: n * prefix_bytes() payload, binary search.
class RawSortedStore final : public PrefixStore {
 public:
  /// `batch` must already be sort_unique()'d.
  explicit RawSortedStore(const PrefixBatch& batch);

  [[nodiscard]] std::size_t prefix_bytes() const noexcept override {
    return stride_;
  }
  /// Sorted probe: the batch is visited in ascending order and each
  /// binary search resumes from the previous hit's position.
  void contains_many(std::span<const std::uint8_t> flat,
                     std::span<bool> out) const noexcept override;
  [[nodiscard]] std::size_t size() const noexcept override {
    return data_.size() / stride_;
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return data_.size();
  }

 private:
  std::size_t stride_;
  std::vector<std::uint8_t> data_;
};

/// Scratch for sorted-probe batch queries: the query order permutation,
/// sized for the common case (every decomposition of one URL) on the
/// stack and falling back to the heap above kInline entries. Stores
/// sort this internally so callers can pass batches in any order.
struct BatchOrder {
  static constexpr std::size_t kInline = 64;

  /// Index array [0, n) sorted so that key(order[0]) <= key(order[1]) ...
  /// `less` compares two query indices.
  template <typename Less>
  std::span<const std::uint32_t> sorted(std::size_t n, Less&& less) {
    std::uint32_t* base = inline_;
    if (n > kInline) {
      heap_.resize(n);
      base = heap_.data();
    }
    for (std::size_t i = 0; i < n; ++i) {
      base[i] = static_cast<std::uint32_t>(i);
    }
    std::sort(base, base + n, less);
    return {base, n};
  }

 private:
  std::uint32_t inline_[kInline];
  std::vector<std::uint32_t> heap_;
};

/// The sorted probe of the exact sorted stores (RawSortedStore,
/// RawHashStore): visits the `n` queries in ascending order (`less`
/// compares two query indices) and sets out[q] = step(lo, q), where `step`
/// moves the entry cursor `lo` forward to query q's lower bound -- resuming
/// from the previous query's, so a clustered batch costs near-linear time
/// -- and says whether the entry there equals the query.
template <typename Less, typename Step>
void probe_sorted(std::size_t n, std::span<bool> out, Less&& less,
                  Step&& step) {
  BatchOrder scratch;
  std::size_t lo = 0;
  for (const std::uint32_t q : scratch.sorted(n, less)) out[q] = step(lo, q);
}

/// Factory covering all three kinds (Bloom sized per `bloom_bits` total).
[[nodiscard]] std::unique_ptr<PrefixStore> make_store(
    StoreKind kind, const PrefixBatch& sorted_batch,
    std::size_t bloom_bits = 0);

}  // namespace sbp::storage
