#include "sb/wire/rice.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sbp::sb::wire {

namespace {

/// MSB-first bit appender.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void put(std::uint32_t bits, unsigned count) {
    for (unsigned i = count; i-- > 0;) {
      put_bit((bits >> i) & 1u);
    }
  }

  void put_unary(std::uint32_t quotient) {
    for (std::uint32_t i = 0; i < quotient; ++i) put_bit(1);
    put_bit(0);
  }

  void flush() {
    if (fill_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(current_ << (8 - fill_)));
      current_ = 0;
      fill_ = 0;
    }
  }

 private:
  void put_bit(unsigned bit) {
    current_ = static_cast<std::uint8_t>((current_ << 1) | (bit & 1u));
    if (++fill_ == 8) {
      out_.push_back(current_);
      current_ = 0;
      fill_ = 0;
    }
  }

  std::vector<std::uint8_t>& out_;
  std::uint8_t current_ = 0;
  unsigned fill_ = 0;
};

/// MSB-first bit consumer over a fixed payload. Reads a 64-bit window per
/// call instead of one bit at a time: v4 slices are decoded once per
/// re-syncing client, so this loop is on the fleet's update path.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  /// A unary-coded quotient: the number of 1 bits before the next 0.
  /// nullopt when the payload ends first or the count exceeds `max`.
  [[nodiscard]] std::optional<std::uint32_t> unary(std::uint32_t max) noexcept {
    std::uint64_t quotient = 0;
    for (;;) {
      const std::size_t left = remaining();
      if (left == 0) return std::nullopt;  // truncated payload
      const auto valid = static_cast<unsigned>(std::min<std::size_t>(left, 57));
      const auto ones = static_cast<unsigned>(std::countl_one(window()));
      if (ones < valid) {
        quotient += ones;
        if (quotient > max) return std::nullopt;
        cursor_ += ones + 1;
        return static_cast<std::uint32_t>(quotient);
      }
      quotient += valid;
      if (quotient > max) return std::nullopt;
      cursor_ += valid;
    }
  }

  /// The next `count` (1..32) bits as one MSB-first value.
  [[nodiscard]] std::optional<std::uint32_t> bits(unsigned count) noexcept {
    if (count > remaining()) return std::nullopt;
    const std::uint64_t value = window() >> (64 - count);
    cursor_ += count;
    return static_cast<std::uint32_t>(value);
  }

 private:
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() * 8 - cursor_;
  }

  /// The bits from the cursor on, MSB-aligned; at least 57 of them are
  /// payload bits or, past the payload's end, zeros.
  [[nodiscard]] std::uint64_t window() const noexcept {
    const std::size_t byte = cursor_ >> 3;
    std::uint64_t value = 0;
    if (byte + 8 <= data_.size()) {
      std::memcpy(&value, data_.data() + byte, sizeof value);
      if constexpr (std::endian::native == std::endian::little) {
        value = __builtin_bswap64(value);
      }
    } else {
      for (std::size_t i = byte; i < byte + 8; ++i) {
        value = (value << 8) | (i < data_.size() ? data_[i] : 0u);
      }
    }
    return value << (cursor_ & 7);
  }

  std::span<const std::uint8_t> data_;
  std::size_t cursor_ = 0;  // bit cursor
};

/// Rice parameter: ~log2 of the mean gap, the near-optimal choice for
/// uniformly spread values.
unsigned pick_parameter(std::span<const std::uint32_t> values) {
  const std::uint64_t span = static_cast<std::uint64_t>(values.back()) -
                             static_cast<std::uint64_t>(values.front());
  const std::uint64_t mean_gap = span / (values.size() - 1);
  if (mean_gap < 2) return 0;
  return static_cast<unsigned>(std::bit_width(mean_gap) - 1);
}

/// Payload of Rice-coded (gap-1) values for `values[1..]`.
std::vector<std::uint8_t> encode_payload(std::span<const std::uint32_t> values,
                                         unsigned k) {
  std::vector<std::uint8_t> payload;
  BitWriter bits(payload);
  for (std::size_t i = 1; i < values.size(); ++i) {
    const std::uint32_t coded = values[i] - values[i - 1] - 1;
    bits.put_unary(coded >> k);
    if (k > 0) bits.put(coded & ((1u << k) - 1u), k);
  }
  bits.flush();
  return payload;
}

}  // namespace

void rice_encode_sorted(std::span<const std::uint32_t> values, Writer& out) {
  out.varint(values.size());
  if (values.empty()) return;
  out.varint(values.front());
  if (values.size() == 1) return;

  const unsigned k = pick_parameter(values);
  const std::vector<std::uint8_t> payload = encode_payload(values, k);
  out.u8(static_cast<std::uint8_t>(k));
  out.varint(payload.size());
  out.bytes(payload);
}

std::size_t rice_encoded_size(std::span<const std::uint32_t> values) {
  Writer writer;
  rice_encode_sorted(values, writer);
  return writer.size();
}

std::optional<std::vector<std::uint32_t>> rice_decode_sorted(
    Reader& in, std::size_t max_values) {
  // Every coded value costs >= 1 bit, so no honest count can exceed the
  // remaining frame bits (+1 for the separately-coded first value) -- the
  // pre-allocation bound that keeps a corrupt count varint from sizing a
  // giant reserve.
  const std::uint64_t count_bound =
      std::min<std::uint64_t>(max_values, in.remaining() * 8ull + 1);
  const auto count = in.bounded_varint(count_bound);
  if (!count) return std::nullopt;
  std::vector<std::uint32_t> values;
  if (*count == 0) return values;

  const auto first = in.bounded_varint(0xFFFFFFFFull);
  if (!first) return std::nullopt;
  values.push_back(static_cast<std::uint32_t>(*first));
  if (*count == 1) return values;

  const auto k = in.u8();
  if (!k || *k > 31) return std::nullopt;
  const auto payload_len = in.bounded_varint(in.remaining());
  if (!payload_len) return std::nullopt;
  // Cheapest plausibility check before touching bits (and before sizing
  // any allocation by `count`): every coded value needs at least k+1 bits
  // (empty quotient + remainder).
  const std::uint64_t rest = *count - 1;
  if (rest * (*k + 1ull) > *payload_len * 8ull) return std::nullopt;
  const auto payload = in.bytes(static_cast<std::size_t>(*payload_len));
  if (!payload) return std::nullopt;
  values.reserve(static_cast<std::size_t>(*count));

  BitReader bits(*payload);
  const std::uint32_t max_quotient = 0xFFFFFFFFu >> *k;
  std::uint64_t previous = values.back();
  for (std::uint64_t i = 0; i < rest; ++i) {
    // nullopt: truncated payload, or a quotient that would overflow.
    const auto quotient = bits.unary(max_quotient);
    if (!quotient) return std::nullopt;
    std::uint32_t remainder = 0;
    if (*k > 0) {
      const auto r = bits.bits(*k);
      if (!r) return std::nullopt;
      remainder = *r;
    }
    const std::uint64_t coded =
        (static_cast<std::uint64_t>(*quotient) << *k) | remainder;
    const std::uint64_t value = previous + coded + 1;
    if (value > 0xFFFFFFFFull) return std::nullopt;  // leaves uint32 range
    values.push_back(static_cast<std::uint32_t>(value));
    previous = value;
  }
  return values;
}

}  // namespace sbp::sb::wire
