// A flat set of 32-bit hash prefixes (src/sim): the engine's listed-prefix
// universe.
//
// Open addressing with linear probing (load <= 1/2) over a power-of-two
// array of prefixes. Prefixes are SHA-256 bits, so a Fibonacci home slot
// (as in UrlCache) spreads them. 0 marks an empty slot; the prefix 0
// itself is a flag beside the table. has() reads the home slot and,
// rarely, its neighbours in the same cache line -- where a node-based set
// loads a bucket and then chases a node.
//
// Only insert() changes the set (it grows by doubling); has() is
// const and allocation-free, so any number of threads may read the set
// while nothing inserts.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/digest.hpp"

namespace sbp::sim {

class PrefixSet {
 public:
  /// Adds `prefix`; true iff it was absent.
  bool insert(crypto::Prefix32 prefix) {
    if (prefix == 0) return !std::exchange(has_zero_, true);
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(prefix);
    for (; slots_[i] != 0; i = (i + 1) & mask()) {
      if (slots_[i] == prefix) return false;
    }
    slots_[i] = prefix;
    ++size_;
    return true;
  }

  [[nodiscard]] bool has(crypto::Prefix32 prefix) const noexcept {
    if (prefix == 0) return has_zero_;
    if (slots_.empty()) return false;
    for (std::size_t i = home(prefix);; i = (i + 1) & mask()) {
      if (slots_[i] == prefix) return true;
      if (slots_[i] == 0) return false;
    }
  }

 private:
  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  /// Fibonacci hashing: the top bits of prefix * 2^64/phi.
  [[nodiscard]] std::size_t home(crypto::Prefix32 prefix) const noexcept {
    return static_cast<std::size_t>((prefix * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }

  /// Doubles the table (16 slots at first) and re-places every prefix.
  void grow() {
    std::vector<crypto::Prefix32> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, 2 * old.size()), 0);
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const crypto::Prefix32 prefix : old) {
      if (prefix == 0) continue;
      std::size_t i = home(prefix);
      while (slots_[i] != 0) i = (i + 1) & mask();
      slots_[i] = prefix;
    }
  }

  std::vector<crypto::Prefix32> slots_;  ///< power-of-two size, or empty
  std::size_t size_ = 0;  ///< nonzero prefixes held
  bool has_zero_ = false;
  int shift_ = 64;
};

}  // namespace sbp::sim
