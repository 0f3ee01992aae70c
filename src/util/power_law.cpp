#include "util/power_law.hpp"

#include <cmath>
#include <stdexcept>

namespace sbp::util {

PowerLawSampler::PowerLawSampler(double alpha, std::uint64_t x_min,
                                 std::uint64_t x_max)
    : alpha_(alpha), x_min_(x_min), x_max_(x_max) {
  if (alpha <= 1.0) {
    throw std::invalid_argument("PowerLawSampler: alpha must be > 1");
  }
  if (x_min == 0 || x_max < x_min) {
    throw std::invalid_argument("PowerLawSampler: need 0 < x_min <= x_max");
  }
  // Inverse transform for the continuous Pareto with tail exponent alpha-1:
  //   X = x_min * (1 - U)^(-1 / (alpha - 1))
  // truncated at x_max by resampling U on the feasible interval so the
  // distribution stays a proper (renormalized) power law on [x_min, x_max].
  exponent_ = -1.0 / (alpha_ - 1.0);
  tail_at_max_ =
      std::pow(static_cast<double>(x_max_ + 1) / static_cast<double>(x_min_),
               -(alpha_ - 1.0));
}

std::uint64_t PowerLawSampler::sample(Rng& rng) const {
  // U uniform on [tail_at_max, 1): maps to X in [x_min, x_max + 1).
  const double u = tail_at_max_ + rng.next_double() * (1.0 - tail_at_max_);
  const double x = static_cast<double>(x_min_) * std::pow(u, exponent_);
  auto result = static_cast<std::uint64_t>(x);
  if (result < x_min_) result = x_min_;
  if (result > x_max_) result = x_max_;
  return result;
}

PowerLawFit fit_power_law(std::span<const std::uint64_t> samples,
                          std::uint64_t x_min) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (std::uint64_t x : samples) {
    if (x < x_min) continue;
    log_sum +=
        std::log(static_cast<double>(x) / static_cast<double>(x_min));
    ++n;
  }
  PowerLawFit fit;
  if (n < 2 || log_sum <= 0.0) return fit;
  fit.n = n;
  fit.alpha = 1.0 + static_cast<double>(n) / log_sum;
  fit.std_error = (fit.alpha - 1.0) / std::sqrt(static_cast<double>(n));
  return fit;
}

}  // namespace sbp::util
