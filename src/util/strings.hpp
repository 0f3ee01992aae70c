// Small string utilities shared across the library.
//
// The URL canonicalizer (src/url) relies heavily on these; they are kept
// allocation-conscious and locale-independent (ASCII-only semantics, which is
// what the Safe Browsing canonicalization spec requires).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sbp::util {

/// Splits `input` on `sep`, keeping empty fields.
/// split("a..b", '.') -> {"a", "", "b"}.
[[nodiscard]] std::vector<std::string_view> split(std::string_view input,
                                                  char sep);

/// Joins the pieces with `sep` between them.
[[nodiscard]] std::string join(const std::vector<std::string_view>& pieces,
                               std::string_view sep);
[[nodiscard]] std::string join(const std::vector<std::string>& pieces,
                               std::string_view sep);

/// ASCII lowercase (locale-independent).
[[nodiscard]] std::string to_lower(std::string_view input);

/// Removes leading and trailing characters contained in `chars`.
[[nodiscard]] std::string_view trim(std::string_view input,
                                    std::string_view chars = " \t\r\n");

/// True if `value` starts with / ends with the given affix.
[[nodiscard]] bool starts_with(std::string_view value,
                               std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view value,
                             std::string_view suffix) noexcept;

/// Replaces all occurrences of `from` with `to` (non-overlapping, left to
/// right). `from` must be non-empty.
[[nodiscard]] std::string replace_all(std::string_view input,
                                      std::string_view from,
                                      std::string_view to);

/// The strict integer reader every CLI shares: plain decimal digits only
/// (no sign, space or base prefix), nullopt on anything else or on u64
/// overflow. "-1" must never wrap to 2^64-1.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(
    std::string_view input) noexcept;

/// A comma-separated parse_u64 list ("1,2,8"); nullopt when the list is
/// empty or any item is malformed ("1,,2", "1,-1", "1,").
[[nodiscard]] std::optional<std::vector<std::uint64_t>> parse_u64_list(
    std::string_view input);

}  // namespace sbp::util
