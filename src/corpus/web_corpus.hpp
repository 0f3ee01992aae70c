// Synthetic web corpus generator (substitute for Common Crawl, Section 6.2).
//
// The paper measures URL/decomposition distributions on two million-host
// datasets drawn from the April 2015 Common Crawl (168 TB): the Alexa top-1M
// and 1M random hosts. We cannot ship Common Crawl, but the paper itself
// reduces the relevant structure to a handful of measured statistics:
//   * pages per host follow a power law with fitted alpha = 1.312 (x_min=1);
//   * the random dataset has ~61% single-page hosts;
//   * the crawler caps hosts at ~2.7e5 pages (the Figure 5a plateau);
//   * hosts have subdomains (www/m/fr/...) and shallow path trees (41-51% of
//     hosts see at most 10 decompositions per URL; the mean is in [1,5] for
//     46% of hosts).
// The generator reproduces exactly these observables, deterministically from
// a seed, so every Figure 5/6 and Table 8 bench regenerates the paper's
// distribution *shapes* at a configurable scale (benches print their scale
// factor relative to the paper's 1M hosts).
//
// Each site draws from one sequential RNG stream, page after page, so the
// first p pages of a site do not depend on the pages after them: a caller
// that needs page p asks site_into for a (p + 1)-page prefix and gets the
// same bytes the whole site would start with. The blacklist seed and the
// simulation's site table generate only such prefixes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/power_law.hpp"
#include "util/rng.hpp"

namespace sbp::corpus {

/// Tunable knobs of the synthetic web. Use the presets below to mirror the
/// paper's two datasets.
struct CorpusConfig {
  std::size_t num_hosts = 10000;
  std::uint64_t seed = 1;

  double alpha = 1.312;          ///< pages-per-host power-law exponent
  std::uint64_t max_pages = 30000;  ///< crawler cap (paper: ~2.7e5 at full scale)
  double single_page_fraction = 0.0;  ///< hosts forced to exactly 1 page
  std::uint64_t min_pages = 1;   ///< x_min of the power law

  double subdomain_probability = 0.2;   ///< page hosted on sub.host instead of host
  double query_probability = 0.1;       ///< page URL carries ?k=v
  double directory_page_probability = 0.15;  ///< page is a directory index ".../"

  /// Path-depth distribution: depth d (1..6) with weight kDepthWeights[d-1];
  /// shallow-heavy to match the paper's decomposition statistics.
  static constexpr double kDepthWeights[6] = {0.45, 0.27, 0.15, 0.08, 0.03,
                                              0.02};

  /// The paper's Alexa-like dataset: popular hosts, more pages, no forced
  /// single-page mass.
  [[nodiscard]] static CorpusConfig alexa_like(std::size_t hosts,
                                               std::uint64_t seed);
  /// The paper's random-host dataset: 61% single-page hosts.
  [[nodiscard]] static CorpusConfig random_like(std::size_t hosts,
                                                std::uint64_t seed);
};

/// One generated page: already in canonical form (the generator emits
/// canonical hosts/paths directly, so no canonicalization pass is needed).
struct Page {
  std::string host;   ///< full host, e.g. "fr.site000042.com"
  std::string path;   ///< canonical path, e.g. "/cat3/item7.html"
  std::string query;  ///< query without '?', empty if none
  bool has_query = false;

  /// The exact SB expression "host/path?query".
  [[nodiscard]] std::string expression() const;
  /// A full URL "http://host/path?query".
  [[nodiscard]] std::string url() const;
};

/// All pages of one host ("site" = registrable domain + its subdomains).
struct Site {
  std::string domain;  ///< registrable domain, e.g. "site000042.com"
  std::vector<Page> pages;
};

/// A generated site in the generator's own form: every page's expression
/// "host/path?query" back to back in one byte buffer, page i ending at
/// ends[i]. Generated hosts hold no '/' and generated paths no '?', so each
/// expression splits back into its Page fields unambiguously.
struct PackedSite {
  std::string bytes;
  std::vector<std::uint32_t> ends;

  [[nodiscard]] std::size_t size() const noexcept { return ends.size(); }
  [[nodiscard]] std::string_view expression(std::size_t i) const noexcept {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return std::string_view(bytes).substr(begin, ends[i] - begin);
  }
};

/// Deterministic, lazily-generated corpus: site(i) always returns the same
/// site for a given config. Sites are generated on demand so million-URL
/// corpora never need to be resident at once.
class WebCorpus {
 public:
  explicit WebCorpus(CorpusConfig config);

  [[nodiscard]] std::size_t num_hosts() const noexcept {
    return config_.num_hosts;
  }
  [[nodiscard]] const CorpusConfig& config() const noexcept { return config_; }

  /// site_into's default page limit: the whole site.
  static constexpr std::uint64_t kAllPages = ~std::uint64_t{0};

  /// THE generator: writes site `index` (0-based) into `out`, reusing its
  /// storage. Thread-compatible: const and independent per call. With
  /// `max_pages` it writes only the first min(max_pages, page count)
  /// pages, byte for byte the same as that prefix of the whole site.
  /// Returns how many drawn directory-index pages repeated an earlier page
  /// and were written as file pages instead (pages stay unique per site).
  std::size_t site_into(std::size_t index, PackedSite& out,
                        std::uint64_t max_pages = kAllPages) const;

  /// site_into split into Page fields (analysis and benches).
  [[nodiscard]] Site site(std::size_t index) const;

  /// Number of pages site `index` will have. Generates no page, but seeds
  /// the site's stream and makes a power-law draw (a std::pow) on every
  /// call, so a caller that asks per visit memoizes the count
  /// (sim::TrafficModel::sample_page keeps one 16-bit entry per site).
  [[nodiscard]] std::uint64_t site_page_count(std::size_t index) const;

  /// The registrable domain name of site `index`.
  [[nodiscard]] std::string site_domain(std::size_t index) const;

  /// Applies `fn` to every site in order.
  void for_each_site(const std::function<void(const Site&)>& fn) const;

 private:
  [[nodiscard]] util::Rng site_rng(std::size_t index) const;
  /// Room for the longest domain: "site", 20 digits, '.', a 6-byte TLD.
  using DomainBuffer = std::array<char, 32>;
  /// Draws the TLD from a fresh site stream and writes the domain into
  /// `out`, returning it.
  [[nodiscard]] static std::string_view domain_of(std::size_t index,
                                                  util::Rng& rng,
                                                  DomainBuffer& out);
  /// Draws the page count, the stream's next draw after the TLD.
  [[nodiscard]] std::uint64_t page_count(util::Rng& rng) const;

  CorpusConfig config_;
  util::PowerLawSampler page_sampler_;
};

}  // namespace sbp::corpus
