// Server-side URL re-identification (paper Sections 5, 6.1).
//
// The adversary (Google/Yandex) holds a web index -- here, the corpus -- and
// inverts received prefixes against it:
//   * single prefix: the candidate set is every indexed decomposition whose
//     prefix matches (its size is the k-anonymity of Section 5);
//   * multiple prefixes: candidate URLs are those whose decomposition prefix
//     set covers ALL received prefixes; Section 6.1's Case 1-3 analysis
//     falls out of the intersection. Leaf URLs and collision-free URLs
//     re-identify uniquely from 2 prefixes.
//
// The index is built from corpus sites and/or explicit URL lists, mirroring
// "Google and Yandex have web indexing capabilities ... they maintain the
// database of all webpages and URLs on the web" (Section 4).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "corpus/web_corpus.hpp"
#include "crypto/digest.hpp"

namespace sbp::analysis {

/// Result of inverting a set of received prefixes.
struct ReidentificationResult {
  /// URLs (exact expressions) whose decompositions cover every received
  /// prefix; sorted, deduplicated.
  std::vector<std::string> candidate_urls;
  /// Expressions matching each single prefix (union over prefixes).
  std::vector<std::string> matching_expressions;
  /// True when exactly one candidate URL remains.
  [[nodiscard]] bool unique() const noexcept {
    return candidate_urls.size() == 1;
  }
};

class ReidentificationIndex {
 public:
  ReidentificationIndex() = default;

  /// Indexes a URL: its exact expression and all decompositions.
  void add_url(std::string_view raw_url);

  /// Indexes every page of every site of the corpus.
  void add_corpus(const corpus::WebCorpus& corpus);

  /// Expressions whose 32-bit prefix equals `prefix` (single-prefix
  /// inversion; the vector size is the empirical k of Section 5).
  [[nodiscard]] std::vector<std::string> invert_prefix(
      crypto::Prefix32 prefix) const;

  /// Multi-prefix re-identification: URLs covering all `prefixes`.
  [[nodiscard]] ReidentificationResult reidentify(
      const std::vector<crypto::Prefix32>& prefixes) const;

  [[nodiscard]] std::size_t num_urls() const noexcept { return urls_.size(); }

 private:
  struct UrlEntry {
    std::string exact;
    std::vector<crypto::Prefix32> prefixes;  // of all decompositions
  };

  std::vector<UrlEntry> urls_;
  /// prefix -> expressions hashing to it (decomposition-level inversion).
  std::unordered_map<crypto::Prefix32, std::vector<std::string>> by_prefix_;
  /// prefix -> indexes of URLs with that prefix among their decompositions.
  std::unordered_map<crypto::Prefix32, std::vector<std::uint32_t>>
      urls_by_prefix_;
};

}  // namespace sbp::analysis
