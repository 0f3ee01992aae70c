#include "util/strings.hpp"

#include <limits>

namespace sbp::util {

std::vector<std::string_view> split(std::string_view input, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(input.substr(start));
      break;
    }
    out.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

namespace {
template <typename Range>
std::string join_impl(const Range& pieces, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& piece : pieces) {
    if (!first) out.append(sep);
    out.append(piece);
    first = false;
  }
  return out;
}
}  // namespace

std::string join(const std::vector<std::string_view>& pieces,
                 std::string_view sep) {
  return join_impl(pieces, sep);
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  return join_impl(pieces, sep);
}

std::string to_lower(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string_view trim(std::string_view input, std::string_view chars) {
  const std::size_t first = input.find_first_not_of(chars);
  if (first == std::string_view::npos) return {};
  const std::size_t last = input.find_last_not_of(chars);
  return input.substr(first, last - first + 1);
}

bool starts_with(std::string_view value, std::string_view prefix) noexcept {
  return value.size() >= prefix.size() &&
         value.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view value, std::string_view suffix) noexcept {
  return value.size() >= suffix.size() &&
         value.substr(value.size() - suffix.size()) == suffix;
}

std::string replace_all(std::string_view input, std::string_view from,
                        std::string_view to) {
  std::string out;
  out.reserve(input.size());
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = input.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(input.substr(start));
      return out;
    }
    out.append(input.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

std::optional<std::uint64_t> parse_u64(std::string_view input) noexcept {
  if (input.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : input) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;  // overflow
    }
    value = value * 10 + digit;
  }
  return value;
}

std::optional<std::vector<std::uint64_t>> parse_u64_list(
    std::string_view input) {
  std::vector<std::uint64_t> values;
  for (const std::string_view item : split(input, ',')) {
    const std::optional<std::uint64_t> value = parse_u64(item);
    if (!value) return std::nullopt;
    values.push_back(*value);
  }
  return values;
}

}  // namespace sbp::util
