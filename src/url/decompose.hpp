// Safe Browsing host-suffix / path-prefix decompositions.
//
// After canonicalization, a client does not hash the URL itself but up to 30
// "expressions": at most 5 host suffixes x at most 6 path prefixes (paper
// Section 2.2.1; the paper's running example lists the 8 expressions of
// http://a.b.c/1/2.ext?param=1 in the exact order reproduced here).
//
// Host suffixes (unless the host is an IP, which yields only itself):
//   * the exact hostname;
//   * up to 4 hostnames formed from the last 5 components by successively
//     removing the leading component, never going below 2 components.
// Path prefixes, in order:
//   * exact path with query (only if a query is present);
//   * exact path without query;
//   * "/" and then up to 3 more directory prefixes "/c1/", "/c1/c2/", ...
//     (at most 4 root-anchored prefixes in total).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/digest.hpp"
#include "url/canonicalize.hpp"

namespace sbp::url {

/// One hashable expression of a URL.
struct Decomposition {
  std::string expression;  ///< e.g. "a.b.c/1/2.ext?param=1"
  std::string host;        ///< host-suffix part, e.g. "a.b.c"
  std::string path;        ///< path-prefix part (query included if any)
  bool is_exact = false;   ///< true for the full URL expression (with query
                           ///< if present, else the exact path)
};

/// At most 5 host suffixes x 6 path prefixes.
inline constexpr std::size_t kMaxHostSuffixes = 5;
inline constexpr std::size_t kMaxPathPrefixes = 6;
inline constexpr std::size_t kMaxDecompositions =
    kMaxHostSuffixes * kMaxPathPrefixes;

/// The decompositions of one URL, packed: expression i is
/// text[begin(i), ends[i]), and its host-suffix part is the first
/// host_sizes[i] bytes. Reused across decompose_into calls, it allocates
/// nothing once `text` and `paths` have grown to the inputs' sizes.
struct PackedExpressions {
  std::string text;
  std::size_t count = 0;
  std::array<std::uint32_t, kMaxDecompositions> ends{};
  std::array<std::uint32_t, kMaxDecompositions> host_sizes{};
  /// Working memory: the path prefixes, back to back.
  std::string paths;

  [[nodiscard]] std::size_t begin(std::size_t i) const noexcept {
    return i == 0 ? 0 : ends[i - 1];
  }
  [[nodiscard]] std::string_view operator[](std::size_t i) const noexcept {
    return std::string_view(text).substr(begin(i), ends[i] - begin(i));
  }
};

/// THE decomposer: writes every expression of a canonicalized URL into
/// `out`, most specific host first, paths ordered as in the paper's
/// example. At most kMaxDecompositions entries, deduplicated.
void decompose_into(const CanonicalUrl& url, PackedExpressions& out);

/// decompose_into, one Decomposition per expression.
[[nodiscard]] std::vector<Decomposition> decompose(const CanonicalUrl& url);

/// Convenience: canonicalize then decompose; empty result if the URL cannot
/// be canonicalized.
[[nodiscard]] std::vector<Decomposition> decompose(std::string_view raw_url);

/// Expression strings only (in decomposition order).
[[nodiscard]] std::vector<std::string> decompose_expressions(
    std::string_view raw_url);

/// 32-bit SHA-256 prefixes of all decompositions, in decomposition order.
/// This is the exact data a client tests against its local database.
[[nodiscard]] std::vector<crypto::Prefix32> decompose_prefixes(
    std::string_view raw_url);

/// The host-suffix candidates for a canonical host (exposed for tests and
/// for the corpus statistics).
[[nodiscard]] std::vector<std::string> host_suffixes(std::string_view host,
                                                     bool host_is_ip);

/// The path-prefix candidates for a canonical path/query (exposed for
/// tests). `query` is used only when `has_query`.
[[nodiscard]] std::vector<std::string> path_prefixes(std::string_view path,
                                                     std::string_view query,
                                                     bool has_query);

}  // namespace sbp::url
