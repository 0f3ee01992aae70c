// Deterministic random number generation.
//
// Every experiment in this repository must be reproducible from a seed: the
// corpus generator, the blacklist factory and the user-population simulator
// all take an explicit Rng. We use xoshiro256** (public domain, Blackman &
// Vigna) seeded through SplitMix64, which is fast, high-quality and -- unlike
// std::mt19937_64 -- has a trivially portable, documented state layout.
//
// The generator is header-only: corpus generation and traffic planning make
// several draws per page, and an out-of-line call per draw cost more than
// the draw itself.
#pragma once

#include <cstdint>
#include <limits>

namespace sbp::util {

/// SplitMix64 step; used to expand a single 64-bit seed into generator state.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 generator. Satisfies std::uniform_random_bit_generator
/// so it can be used with <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  /// Next 64 random bits.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool next_bool(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Forks an independent stream (seeded from this stream's output). Useful
  /// for giving each simulated user / domain its own generator.
  [[nodiscard]] Rng fork() noexcept { return Rng(next()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace sbp::util
