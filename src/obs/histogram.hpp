// Fixed-bucket histograms for the observability layer (src/obs).
//
// The hot paths this layer instruments (plan/lookup/URL-build spans, wire
// frame sizes, worker busy times) run inside the engine's parallel phase,
// so the histogram must be recordable with no allocation, no locking and a
// handful of instructions: values land in power-of-two buckets (bucket i
// holds [2^(i-1), 2^i - 1]; bucket 0 holds exactly 0), picked with a
// single bit_width. Each shard owns its histograms during a tick; the
// engine merges them AFTER the barrier in canonical shard order. Merging
// is a field-wise integer sum, so it is exact and commutative -- the same
// totals at any thread count or merge order, which is what lets metrics
// collection coexist with the engine's bit-identical determinism contract
// (tests/obs/histogram_test.cpp pins this down).
//
// Quantiles are estimated by linear interpolation inside the target
// bucket and clamped to the observed [min, max], so a constant stream
// reports its exact value and estimates never leave the observed range.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>

namespace sbp::obs {

class Histogram {
 public:
  /// 48 power-of-two buckets cover [0, 2^47): about 39 hours in
  /// nanoseconds and 128 TB in bytes -- beyond either use. Larger values
  /// saturate into the last bucket.
  static constexpr std::size_t kBuckets = 48;

  void record(std::uint64_t value) noexcept {
    ++buckets_[bucket_index(value)];
    ++count_;
    sum_ += value;
    if (count_ == 1 || value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  /// Exact, commutative merge: bucket-wise + moment-wise integer sums.
  void merge_from(const Histogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    if (other.count_ > 0) {
      if (count_ == 0 || other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ > 0 ? min_ : 0;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ > 0
               ? static_cast<double>(sum_) / static_cast<double>(count_)
               : 0.0;
  }

  /// Quantile estimate for q in [0, 1]; 0 when empty. Monotone in q.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  [[nodiscard]] std::uint64_t bucket(std::size_t index) const noexcept {
    return index < kBuckets ? buckets_[index] : 0;
  }

  /// Inclusive upper edge of bucket i (0, 1, 3, 7, ... 2^i - 1).
  [[nodiscard]] static std::uint64_t bucket_upper_bound(
      std::size_t index) noexcept {
    if (index == 0) return 0;
    if (index >= kBuckets - 1) return UINT64_MAX;  // saturation bucket
    return (std::uint64_t{1} << index) - 1;
  }

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept {
    const std::size_t width = static_cast<std::size_t>(std::bit_width(value));
    return width < kBuckets ? width : kBuckets - 1;
  }

  friend bool operator==(const Histogram& a, const Histogram& b) noexcept {
    if (a.count_ != b.count_ || a.sum_ != b.sum_ || a.min() != b.min() ||
        a.max_ != b.max_) {
      return false;
    }
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (a.buckets_[i] != b.buckets_[i]) return false;
    }
    return true;
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace sbp::obs
