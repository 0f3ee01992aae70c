// Discrete power-law sampling and maximum-likelihood fitting.
//
// Section 6.2 of the paper fits the number of web pages per site to
//   p(x) = ((alpha - 1) / x_min) * (x / x_min)^(-alpha)
// and estimates alpha with the continuous MLE
//   alpha_hat = 1 + n * (sum_i ln(x_i / x_min))^(-1),  sigma = (alpha_hat-1)/sqrt(n)
// reporting alpha_hat = 1.312 +/- 0.0004 for its random-host dataset.
// The corpus generator (src/corpus) samples pages-per-host from this law and
// the Table 8 bench re-fits the generated data with the same estimator.
#pragma once

#include <cstdint>
#include <span>

#include "util/rng.hpp"

namespace sbp::util {

/// Result of a continuous-MLE power-law fit (Clauset/Shalizi/Newman style,
/// which is exactly the estimator printed in the paper, Section 6.2).
struct PowerLawFit {
  double alpha = 0.0;      ///< Estimated exponent alpha-hat.
  double std_error = 0.0;  ///< Standard error (alpha-hat - 1) / sqrt(n).
  std::size_t n = 0;       ///< Number of samples used.
};

/// Samples integers x >= x_min following the Pareto tail
/// P(X >= x) = (x / x_min)^(-(alpha - 1)) via inverse-transform sampling,
/// i.e. the continuous Pareto rounded down. Requires alpha > 1.
class PowerLawSampler {
 public:
  PowerLawSampler(double alpha, std::uint64_t x_min, std::uint64_t x_max);

  /// Draws one sample in [x_min, x_max].
  [[nodiscard]] std::uint64_t sample(Rng& rng) const;

  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] std::uint64_t x_min() const noexcept { return x_min_; }
  [[nodiscard]] std::uint64_t x_max() const noexcept { return x_max_; }

 private:
  double alpha_;
  std::uint64_t x_min_;
  std::uint64_t x_max_;
  double exponent_;     ///< -1 / (alpha - 1)
  double tail_at_max_;  ///< P(X >= x_max + 1) of the untruncated law
};

/// Fits alpha-hat by the paper's MLE. Samples below `x_min` are ignored.
/// Returns a zero-initialized fit if fewer than 2 usable samples exist.
[[nodiscard]] PowerLawFit fit_power_law(std::span<const std::uint64_t> samples,
                                        std::uint64_t x_min = 1);

}  // namespace sbp::util
