// Byte-level primitives of the wire protocol (src/sb/wire).
//
// Every client<->server exchange is serialized into a flat byte frame
// before it crosses the Transport, so TransportStats counts *real* wire
// bytes -- the quantity the paper's bandwidth arguments (Section 2.2: v1
// was deprecated partly for efficiency; Table 2: compressed prefix sets)
// are about. Writer appends primitives; Reader consumes them and turns
// every malformation -- truncation, over-long varints, absurd length
// fields -- into a decode failure instead of UB.
//
// Conventions: integers are unsigned LEB128 varints (util/varint) unless a
// field is naturally fixed-width (32-bit prefixes, 256-bit digests, which
// are raw big-endian bytes); strings are varint length + raw bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/varint.hpp"

namespace sbp::sb::wire {

/// Append-only frame builder.
class Writer {
 public:
  Writer() = default;
  /// Writes into `reuse`'s storage (cleared first), so a caller that hands
  /// back the frame it took last time encodes without allocating.
  explicit Writer(std::vector<std::uint8_t>&& reuse) : out_(std::move(reuse)) {
    out_.clear();
  }

  void u8(std::uint8_t value) { out_.push_back(value); }

  void u32be(std::uint32_t value) {
    out_.push_back(static_cast<std::uint8_t>(value >> 24));
    out_.push_back(static_cast<std::uint8_t>(value >> 16));
    out_.push_back(static_cast<std::uint8_t>(value >> 8));
    out_.push_back(static_cast<std::uint8_t>(value));
  }

  void varint(std::uint64_t value) { util::varint_encode(value, out_); }

  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  /// varint length + raw bytes.
  void string(std::string_view value) {
    varint(value.size());
    out_.insert(out_.end(), value.begin(), value.end());
  }

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return out_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(out_);
  }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked frame consumer. Every getter returns nullopt/false on
/// malformed input and never reads past the frame.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> u8() noexcept {
    if (offset_ >= data_.size()) return std::nullopt;
    return data_[offset_++];
  }

  [[nodiscard]] std::optional<std::uint32_t> u32be() noexcept {
    if (offset_ + 4 > data_.size()) return std::nullopt;
    const std::uint32_t value =
        (static_cast<std::uint32_t>(data_[offset_]) << 24) |
        (static_cast<std::uint32_t>(data_[offset_ + 1]) << 16) |
        (static_cast<std::uint32_t>(data_[offset_ + 2]) << 8) |
        static_cast<std::uint32_t>(data_[offset_ + 3]);
    offset_ += 4;
    return value;
  }

  [[nodiscard]] std::optional<std::uint64_t> varint() noexcept {
    return util::varint_decode(data_, offset_);
  }

  /// varint that must not exceed `max` (length/count fields: a value larger
  /// than the remaining frame could ever justify is corruption, and must
  /// fail before any allocation sized by it).
  [[nodiscard]] std::optional<std::uint64_t> bounded_varint(
      std::uint64_t max) noexcept {
    const auto value = varint();
    if (!value || *value > max) return std::nullopt;
    return value;
  }

  /// Raw byte run of exactly `length` bytes.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> bytes(
      std::size_t length) noexcept {
    if (length > remaining()) return std::nullopt;
    const std::span<const std::uint8_t> out = data_.subspan(offset_, length);
    offset_ += length;
    return out;
  }

  [[nodiscard]] std::optional<std::string> string(
      std::size_t max_length) noexcept {
    const auto length = bounded_varint(max_length);
    if (!length || *length > remaining()) return std::nullopt;
    std::string out(reinterpret_cast<const char*>(data_.data() + offset_),
                    static_cast<std::size_t>(*length));
    offset_ += static_cast<std::size_t>(*length);
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }
  [[nodiscard]] bool done() const noexcept { return offset_ == data_.size(); }
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

}  // namespace sbp::sb::wire
