// Self-contained JSON reader/writer (src/util/json).
//
// The scenario-runner CLI (tools/sbsim) turns every simulation workload
// into a declarative *.json file, so the repo needs a JSON layer with the
// same discipline as the wire decoders (sb/wire/): strict, total, and
// crash-free on arbitrary bytes -- a malformed scenario file must produce
// a located error message, never undefined behaviour. No third-party
// dependency: like the rest of src/, this is plain C++20 + the standard
// library.
//
// Design notes:
//   * Value is an immutable-ish sum type (null / bool / number / string /
//     array / object). Objects preserve insertion order (vector of pairs)
//     so serialized scenarios diff cleanly; lookups are linear, which is
//     the right trade for config-sized documents.
//   * Numbers are stored as double plus an exact int64 when the literal
//     was integral and in range -- SimConfig is full of u64 counts that
//     must survive a round trip bit-exactly. Values outside int64 range
//     (e.g. 64-bit fingerprints) are carried as hex strings by
//     convention ("0x016llx"-formatted), not numbers.
//   * parse() is recursive descent with an explicit depth cap, mirroring
//     the wire fuzz contract: any input either yields a Value or a
//     ParseError naming the byte offset -- tested by
//     tests/util/json_test.cpp in the style of sb/wire_fuzz_test.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sbp::util::json {

class Value;
using Array = std::vector<Value>;
/// Insertion-ordered object. Keys are unique after parse (duplicate keys
/// are a parse error -- silent last-wins hides scenario typos).
using Object = std::vector<std::pair<std::string, Value>>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}  // NOLINT(runtime/explicit)
  Value(bool value) : type_(Type::kBool), bool_(value) {}  // NOLINT
  Value(double value) : type_(Type::kNumber), number_(value) {  // NOLINT
    sync_integer_from_double();
  }
  Value(std::int64_t value)  // NOLINT(runtime/explicit)
      : type_(Type::kNumber), number_(static_cast<double>(value)),
        integer_(value), has_integer_(true) {}
  Value(int value) : Value(static_cast<std::int64_t>(value)) {}  // NOLINT
  Value(std::uint64_t value)  // NOLINT(runtime/explicit)
      : type_(Type::kNumber), number_(static_cast<double>(value)) {
    if (value <= static_cast<std::uint64_t>(INT64_MAX)) {
      integer_ = static_cast<std::int64_t>(value);
      has_integer_ = true;
    }
  }
  Value(std::string value)  // NOLINT(runtime/explicit)
      : type_(Type::kString), string_(std::move(value)) {}
  Value(std::string_view value)  // NOLINT(runtime/explicit)
      : type_(Type::kString), string_(value) {}
  Value(const char* value) : Value(std::string_view(value)) {}  // NOLINT
  Value(Array value)  // NOLINT(runtime/explicit)
      : type_(Type::kArray), array_(std::move(value)) {}
  Value(Object value)  // NOLINT(runtime/explicit)
      : type_(Type::kObject), object_(std::move(value)) {}

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  /// True when the number was (or fits) an exact int64.
  [[nodiscard]] bool is_integer() const noexcept {
    return type_ == Type::kNumber && has_integer_;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return type_ == Type::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_double() const noexcept { return number_; }
  [[nodiscard]] std::int64_t as_int64() const noexcept { return integer_; }
  [[nodiscard]] const std::string& as_string() const noexcept {
    return string_;
  }
  [[nodiscard]] const Array& as_array() const noexcept { return array_; }
  [[nodiscard]] Array& as_array() noexcept { return array_; }
  [[nodiscard]] const Object& as_object() const noexcept { return object_; }
  [[nodiscard]] Object& as_object() noexcept { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;

  /// Sets (or replaces) an object member, keeping insertion order.
  void set(std::string_view key, Value value);

  /// Deep structural equality (numbers compare by double value).
  friend bool operator==(const Value& a, const Value& b) noexcept;
  friend bool operator!=(const Value& a, const Value& b) noexcept {
    return !(a == b);
  }

 private:
  void sync_integer_from_double() noexcept;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::int64_t integer_ = 0;
  bool has_integer_ = false;
  std::string string_;
  Array array_;
  Object object_;
};

/// Failed parse: a message and the byte offset it points at.
struct ParseError {
  std::string message;
  std::size_t offset = 0;

  /// "message at offset N (line L)" -- the form sbsim prints.
  [[nodiscard]] std::string describe(std::string_view text) const;
};

struct ParseResult {
  std::optional<Value> value;  ///< engaged iff the parse succeeded
  ParseError error;            ///< meaningful iff !value

  [[nodiscard]] bool ok() const noexcept { return value.has_value(); }
};

/// Parses one complete JSON document (trailing garbage is an error).
/// Total: never throws, never crashes, bounded recursion (depth cap 96).
[[nodiscard]] ParseResult parse(std::string_view text);

/// Serializes with 2-space indentation per level when `indent` > 0, or
/// compact single-line output when `indent` == 0. Round trip: for any
/// Value v, parse(dump(v)) reproduces a Value equal to v.
[[nodiscard]] std::string dump(const Value& value, int indent = 2);

/// Convenience formatters for the repo's u64-as-hex-string convention
/// (fingerprints exceed the 2^53 exact-double range, so they travel as
/// "0x%016llx" strings).
[[nodiscard]] std::string hex_u64(std::uint64_t value);
/// Parses "0x..." (or bare hex) strings; nullopt on malformed input.
[[nodiscard]] std::optional<std::uint64_t> parse_hex_u64(
    std::string_view text);

/// A counter struct (util/counters.hpp) as one object member per row of
/// its `kCounters` table, in table order.
template <class T>
[[nodiscard]] Value counters_to_json(const T& counters) {
  Value out{Object{}};
  for (const auto& field : T::kCounters) {
    out.set(field.name, counters.*field.member);
  }
  return out;
}

}  // namespace sbp::util::json
