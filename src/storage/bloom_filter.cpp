#include "storage/bloom_filter.hpp"

#include <cmath>
#include <stdexcept>

namespace sbp::storage {

namespace {

// 64-bit avalanche mixers (splitmix64 finalizer variants) applied to the
// prefix bytes; h1/h2 feed Kirsch-Mitzenmacher double hashing.
std::uint64_t mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::pair<std::uint64_t, std::uint64_t> hash_pair(
    std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h1 = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h2 = 0xc2b2ae3d27d4eb4fULL;
  for (std::size_t i = 0; i < data.size(); i += 8) {
    std::uint64_t word = 0;
    const std::size_t n = std::min<std::size_t>(8, data.size() - i);
    for (std::size_t j = 0; j < n; ++j) {
      word = (word << 8) | data[i + j];
    }
    h1 = mix(h1 ^ word);
    h2 = mix(h2 + word + 0x165667b19e3779f9ULL);
  }
  if (h2 == 0) h2 = 0x27d4eb2f165667c5ULL;  // keep the stride non-zero
  return {h1, h2};
}

}  // namespace

unsigned BloomFilter::optimal_k(std::size_t m_bits,
                                std::size_t n_entries) noexcept {
  if (n_entries == 0) return 1;
  const double k = std::log(2.0) * static_cast<double>(m_bits) /
                   static_cast<double>(n_entries);
  return std::max(1u, static_cast<unsigned>(std::lround(k)));
}

BloomFilter::BloomFilter(const PrefixBatch& batch, std::size_t total_bits,
                         unsigned k_hashes)
    : stride_(batch.prefix_bytes()),
      num_bits_(total_bits),
      k_(k_hashes != 0 ? k_hashes : optimal_k(total_bits, batch.size())),
      bits_((total_bits + 63) / 64, 0) {
  if (total_bits == 0) {
    throw std::invalid_argument("BloomFilter: total_bits must be > 0");
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    insert(batch.entry(i));
  }
}

void BloomFilter::insert(std::span<const std::uint8_t> prefix) noexcept {
  const auto [h1, h2] = hash_pair(prefix);
  for (unsigned i = 0; i < k_; ++i) {
    const std::uint64_t bit = (h1 + i * h2) % num_bits_;
    bits_[bit >> 6] |= (1ULL << (bit & 63));
  }
  ++count_;
}

bool BloomFilter::probe(const std::uint8_t* prefix) const noexcept {
  const auto [h1, h2] = hash_pair({prefix, stride_});
  for (unsigned i = 0; i < k_; ++i) {
    const std::uint64_t bit = (h1 + i * h2) % num_bits_;
    if ((bits_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
  }
  return true;
}

void BloomFilter::contains_many(std::span<const std::uint8_t> flat,
                                std::span<bool> out) const noexcept {
  const std::size_t n = flat.size() / stride_;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = probe(flat.data() + i * stride_);
  }
}

double BloomFilter::theoretical_fpp() const noexcept {
  if (count_ == 0) return 0.0;
  const double exponent = -static_cast<double>(k_) *
                          static_cast<double>(count_) /
                          static_cast<double>(num_bits_);
  return std::pow(1.0 - std::exp(exponent), k_);
}

}  // namespace sbp::storage
