// Domain hierarchy, leaf URLs and Type I collision enumeration
// (paper Section 6.1, Figure 4).
//
// The paper's re-identification analysis is phrased over the decomposition
// graph of one domain:
//   * a URL is a *leaf* if its exact expression is not a decomposition of
//     any other URL hosted on the domain (Figure 4's blue nodes);
//   * URL v is a *Type I collider* with URL u if u and v share at least two
//     decomposition expressions, which makes 2-prefix re-identification of u
//     ambiguous between u and v;
//   * leaf URLs and URLs with no Type I colliders are re-identifiable from
//     just 2 prefixes (Section 6.1, Case analysis).
//
// Because a URL's decomposition set is the product of its host suffixes and
// path prefixes, |D(u) /\ D(v)| = |H(u) /\ H(v)| * |P(u) /\ P(v)|: this
// class exploits that to answer collider queries without materializing
// cross products.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "url/decompose.hpp"

namespace sbp::corpus {

class DomainHierarchy {
 public:
  /// Builds the hierarchy from the URLs hosted on one domain. Input URLs may
  /// be raw (they are canonicalized); non-canonicalizable ones are skipped.
  explicit DomainHierarchy(const std::vector<std::string>& urls);

  /// Number of URLs retained.
  [[nodiscard]] std::size_t num_urls() const noexcept { return urls_.size(); }

  /// All unique decomposition expressions on the domain.
  [[nodiscard]] std::size_t unique_decompositions() const noexcept {
    return decomposition_count_;
  }

  /// True if the URL (by exact expression) is a leaf: not a decomposition of
  /// any other URL on the domain.
  [[nodiscard]] bool is_leaf(std::string_view exact_expression) const;

  /// Exact expressions of the URLs that form Type I collisions with the
  /// given URL (share >= 2 decompositions). The URL itself is excluded.
  [[nodiscard]] std::vector<std::string> type1_colliders(
      std::string_view exact_expression) const;

  /// Number of decomposition expressions shared by >= 2 distinct URLs
  /// ("Type I collision points" -- the per-host quantity of Section 6.2).
  [[nodiscard]] std::size_t type1_collision_nodes() const noexcept {
    return type1_nodes_;
  }

  /// Index of a URL by exact expression, or npos.
  [[nodiscard]] std::size_t find_url(std::string_view exact_expression) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Decompositions (expressions) of URL `i`.
  [[nodiscard]] std::vector<std::string> decompositions_of(
      std::size_t i) const;

 private:
  struct UrlEntry {
    std::string exact;                    ///< exact expression
    std::vector<std::string> hosts;       ///< host-suffix candidates
    std::vector<std::string> paths;       ///< path-prefix candidates
  };

  std::vector<UrlEntry> urls_;
  std::unordered_map<std::string, std::size_t> index_by_exact_;
  /// decomposition expression -> number of distinct URLs having it.
  std::unordered_map<std::string, std::uint32_t> decomposition_owners_;
  std::size_t decomposition_count_ = 0;
  std::size_t type1_nodes_ = 0;
};

}  // namespace sbp::corpus
