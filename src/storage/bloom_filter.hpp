// Bloom filter prefix store (paper Section 2.2.2).
//
// Chromium's pre-2012 Safe Browsing local store was a Bloom filter; the
// paper reports it as a constant ~3 MB regardless of prefix width, immune to
// width changes but static (no incremental update) and with an intrinsic
// false-positive rate -- which is why Google replaced it with the
// delta-coded table. We reproduce a textbook partitioned-free Bloom filter
// with double hashing (Kirsch-Mitzenmacher), which preserves all of those
// trade-offs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "storage/prefix_store.hpp"

namespace sbp::storage {

class BloomFilter final : public PrefixStore {
 public:
  /// The constant size the paper reports for Chromium's filter: 3 MB.
  static constexpr std::size_t kChromiumDefaultBits = 3u * 1024 * 1024 * 8;

  /// Builds a filter of `total_bits` bits over the batch, with `k_hashes`
  /// probes per entry (0 = optimal k for the given load).
  BloomFilter(const PrefixBatch& batch, std::size_t total_bits,
              unsigned k_hashes = 0);

  [[nodiscard]] std::size_t prefix_bytes() const noexcept override {
    return stride_;
  }
  /// Probe order is irrelevant to a Bloom filter, so the batch is a plain
  /// loop of independent probes.
  void contains_many(std::span<const std::uint8_t> flat,
                     std::span<bool> out) const noexcept override;
  [[nodiscard]] std::size_t size() const noexcept override { return count_; }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return bits_.size() * sizeof(std::uint64_t);
  }

  [[nodiscard]] unsigned k_hashes() const noexcept { return k_; }

  /// Theoretical false-positive probability (1 - e^{-kn/m})^k for the built
  /// filter. The paper's privacy discussion leans on SB being "a
  /// probabilistic test"; this quantifies the Bloom contribution.
  [[nodiscard]] double theoretical_fpp() const noexcept;

  /// Optimal number of hash functions for m bits / n entries.
  [[nodiscard]] static unsigned optimal_k(std::size_t m_bits,
                                          std::size_t n_entries) noexcept;

 private:
  void insert(std::span<const std::uint8_t> prefix) noexcept;
  /// One prefix_bytes()-wide membership probe.
  [[nodiscard]] bool probe(const std::uint8_t* prefix) const noexcept;

  std::size_t stride_;
  std::size_t num_bits_;
  unsigned k_;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace sbp::storage
