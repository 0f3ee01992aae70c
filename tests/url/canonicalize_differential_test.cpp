// Differential test of the guarded canonicalizer: url::canonicalize_into
// skips each step where a scan shows the component would not change, so
// it must agree field for field with the reference that runs every step
// (reference_canonicalize.hpp), and sb::LookupRequest::build must hold the
// bytes the reference's canonical URL decomposes and hashes to. Three input
// sets: Google's vectors, every page of the first 4,000 browse-static
// sites, and seeded mutations of both that put escapes, case, dot runs,
// slashes, whitespace, userinfo, ports, numeric hosts, fragments and high
// bytes wherever they can land.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus/web_corpus.hpp"
#include "crypto/digest.hpp"
#include "google_vectors.hpp"
#include "reference_canonicalize.hpp"
#include "sb/lookup_request.hpp"
#include "url/canonicalize.hpp"
#include "url/decompose.hpp"
#include "util/rng.hpp"

namespace sbp::url {
namespace {

/// `raw` with every byte outside printable ASCII as \xNN.
std::string printable(std::string_view raw) {
  std::string out;
  for (const char c : raw) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7F && c != '\\') {
      out.push_back(c);
    } else {
      char escaped[5];
      std::snprintf(escaped, sizeof(escaped), "\\x%02X", byte);
      out.append(escaped);
    }
  }
  return out;
}

/// Runs the library and the reference side by side on reused buffers, as
/// the engine's per-thread scratch does.
class Differential {
 public:
  ::testing::AssertionResult matches(std::string_view raw) {
    const bool want_ok =
        reference::canonicalize_into(raw, want_, want_scratch_);
    const bool got_ok = canonicalize_into(raw, got_, got_scratch_);
    if (got_ok != want_ok) {
      return ::testing::AssertionFailure()
             << "ok " << got_ok << " != " << want_ok << " for \""
             << printable(raw) << "\"";
    }
    if (want_ok) {
      const auto field = [&](const char* name, const std::string& got,
                             const std::string& want) {
        return ::testing::AssertionFailure()
               << name << " \"" << printable(got) << "\" != \""
               << printable(want) << "\" for \"" << printable(raw) << "\"";
      };
      if (got_.scheme != want_.scheme) {
        return field("scheme", got_.scheme, want_.scheme);
      }
      if (got_.host != want_.host) return field("host", got_.host, want_.host);
      if (got_.path != want_.path) return field("path", got_.path, want_.path);
      if (got_.has_query != want_.has_query || got_.query != want_.query) {
        return field("query", got_.query, want_.query);
      }
      if (got_.host_is_ip != want_.host_is_ip) {
        return ::testing::AssertionFailure()
               << "host_is_ip differs for \"" << printable(raw) << "\"";
      }
    }

    // The request the library builds against the reference's canonical URL
    // decomposed and hashed: the raw bytes, every expression, digest and
    // prefix, and the unique prefixes in first-seen order.
    request_.build(raw);
    expressions_.count = 0;
    expressions_.text.clear();
    if (want_ok) decompose_into(want_, expressions_);
    const auto fail = [&](const char* what) {
      return ::testing::AssertionFailure()
             << "request " << what << " differs for \"" << printable(raw)
             << "\"";
    };
    if (request_.url() != raw) return fail("url");
    if (request_.size() != expressions_.count) return fail("size");
    unique_.clear();
    for (std::size_t i = 0; i < expressions_.count; ++i) {
      if (request_.expression(i) != expressions_[i]) return fail("expression");
      const auto digest = crypto::Digest256::of(expressions_[i]);
      if (!(request_.digests()[i] == digest)) return fail("digest");
      if (request_.prefixes()[i] != digest.prefix32()) return fail("prefix");
      if (std::find(unique_.begin(), unique_.end(), digest.prefix32()) ==
          unique_.end()) {
        unique_.push_back(digest.prefix32());
      }
    }
    const auto unique = request_.unique_prefixes();
    if (!std::equal(unique.begin(), unique.end(), unique_.begin(),
                    unique_.end())) {
      return fail("unique prefixes");
    }
    return ::testing::AssertionSuccess();
  }

 private:
  CanonicalUrl got_;
  CanonicalizeScratch got_scratch_;
  CanonicalUrl want_;
  CanonicalizeScratch want_scratch_;
  sb::LookupRequest request_;
  PackedExpressions expressions_;
  std::vector<crypto::Prefix32> unique_;
};

/// The corpus of benchsuite/workloads/browse-static.json.
corpus::WebCorpus browse_static_corpus() {
  corpus::CorpusConfig config;
  config.num_hosts = 200000;
  config.seed = 2016;
  config.alpha = 1.312;
  config.max_pages = 300;
  config.single_page_fraction = 0;
  config.min_pages = 1;
  config.subdomain_probability = 0.2;
  config.query_probability = 0.1;
  config.directory_page_probability = 0.15;
  return corpus::WebCorpus(config);
}

std::vector<std::string> corpus_urls(std::size_t sites) {
  const corpus::WebCorpus corpus = browse_static_corpus();
  std::vector<std::string> urls;
  for (std::size_t i = 0; i < sites; ++i) {
    for (const corpus::Page& page : corpus.site(i).pages) {
      urls.push_back(page.url());
    }
  }
  return urls;
}

/// Where the host of `url` sits: after "://" when there is one, up to the
/// first '/', '?' or '#'.
std::pair<std::size_t, std::size_t> host_range(std::string_view url) {
  const std::size_t scheme = url.find("://");
  const std::size_t begin = scheme == std::string_view::npos ? 0 : scheme + 3;
  std::size_t end = begin;
  while (end < url.size() && url[end] != '/' && url[end] != '?' &&
         url[end] != '#') {
    ++end;
  }
  return {begin, end};
}

/// Where the path of `url` ends: at its first '?' or '#' after the host.
std::size_t path_end(std::string_view url) {
  const std::size_t from = host_range(url).second;
  std::size_t end = from;
  while (end < url.size() && url[end] != '?' && url[end] != '#') ++end;
  return end;
}

template <std::size_t N>
std::string_view pick(util::Rng& rng, const std::string_view (&options)[N]) {
  return options[rng.next_below(N)];
}

std::string percent(unsigned char byte, bool lower) {
  static constexpr char kUpper[] = "0123456789ABCDEF";
  static constexpr char kLower[] = "0123456789abcdef";
  const char* hex = lower ? kLower : kUpper;
  return {'%', hex[byte >> 4], hex[byte & 0x0F]};
}

/// One seeded mutation of `url`.
void mutate_once(std::string& url, util::Rng& rng) {
  static constexpr std::string_view kDots[] = {".", "..", "...", "....."};
  static constexpr std::string_view kSlashes[] = {"//", "/./", "/../", "/.",
                                                  "/..", "///", "/../../"};
  static constexpr std::string_view kSpace[] = {" ", "  ", "\t", "\r", "\n",
                                                "\r\n", " \t"};
  static constexpr std::string_view kUserinfo[] = {"usr:pwd@", "usr@", "@",
                                                   "a@b@", "u%40v@"};
  static constexpr std::string_view kPorts[] = {":8080", ":", ":x", ":1:2",
                                                ":%38%30"};
  static constexpr std::string_view kIpHosts[] = {
      "0x7f.0.0.1", "0177.0.0.01", "3279880203", "0x42.0x66.0x0d.0x63",
      "1.2.3",      "1.2",         "012.1.2.3",  "4294967296",
      "0x",         "1.2.3.4.5",   "256.1.1.1",  "0X7F.1",
      "1..2",       ".1.2.3.4.",   "08.1.2.3",   "0x100.1",
      "1.2.3.256",  "00000012.1",  "1e3.com",    "195.127.0.11"};
  static constexpr std::string_view kFragments[] = {"#", "#frag", "#a#b",
                                                    "#/../"};
  static constexpr std::string_view kSchemes[] = {
      "", "http://", "HTTP://", "hTtPs://", "ftp://", "x-y.z://", "http:/",
      "1http://"};
  static constexpr unsigned char kEscaped[] = {
      '.', '/', '@', ':', '?', '#', '%', 'A', 'a', ' ', '\t', 0x00,
      0x1F, 0x7F, 0x80, 0xFF, '2', '5', 'x', '0'};

  const std::size_t at = rng.next_below(url.size() + 1);
  const auto [host_begin, host_end] = host_range(url);
  switch (rng.next_below(16)) {
    case 0: {  // an escape of a delimiter, a digit or a high byte
      const unsigned char byte =
          rng.next_bool(0.7) ? kEscaped[rng.next_below(std::size(kEscaped))]
                             : static_cast<unsigned char>(rng.next_below(256));
      std::string escape = percent(byte, rng.next_bool(0.3));
      if (rng.next_bool(0.2)) escape = "%25" + escape.substr(1);  // twice
      url.insert(at, escape);
      break;
    }
    case 1:  // an existing byte rewritten as its escape
      if (at < url.size()) {
        url.replace(at, 1, percent(static_cast<unsigned char>(url[at]),
                                   rng.next_bool(0.5)));
      }
      break;
    case 2:  // mixed case
      for (char& c : url) {
        if (std::isalpha(static_cast<unsigned char>(c)) && rng.next_bool(0.4)) {
          c = static_cast<char>(c ^ 0x20);
        }
      }
      break;
    case 3: {  // a dot run in the host or anywhere
      const std::size_t where =
          rng.next_bool(0.7)
              ? host_begin + rng.next_below(host_end - host_begin + 1)
              : at;
      url.insert(where, pick(rng, kDots));
      break;
    }
    case 4:  // slashes and dot segments in the path or anywhere
      url.insert(rng.next_bool(0.7)
                     ? host_end + rng.next_below(path_end(url) - host_end + 1)
                     : at,
                 pick(rng, kSlashes));
      break;
    case 5:  // a trailing "/." or "/.." ends the path
      url.insert(path_end(url), rng.next_bool(0.5) ? "/." : "/..");
      break;
    case 6:  // surrounding whitespace
      if (rng.next_bool(0.5)) url.insert(0, pick(rng, kSpace));
      if (rng.next_bool(0.5)) url.append(pick(rng, kSpace));
      break;
    case 7:  // TAB/CR/LF (or a space) anywhere
      url.insert(at, pick(rng, kSpace));
      break;
    case 8:
      url.insert(host_begin, pick(rng, kUserinfo));
      break;
    case 9:
      url.insert(host_end, pick(rng, kPorts));
      break;
    case 10:  // a numeric host, decimal, octal or hex
      url.replace(host_begin, host_end - host_begin, pick(rng, kIpHosts));
      break;
    case 11:
      url.insert(at, pick(rng, kFragments));
      break;
    case 12:  // a byte >= 0x7f
      url.insert(at, 1, static_cast<char>(0x7F + rng.next_below(0x81)));
      break;
    case 13:  // a query
      url.insert(at, rng.next_bool(0.5) ? "?" : "?q=%41&r=/../");
      break;
    case 14:
      if (at < url.size()) url.erase(at, 1);
      break;
    default: {  // another scheme, or none
      const std::size_t scheme = url.find("://");
      url.replace(0, scheme == std::string::npos ? 0 : scheme + 3,
                  pick(rng, kSchemes));
      break;
    }
  }
}

TEST(CanonicalizeDifferentialTest, GoogleVectorsMatchTheReference) {
  Differential diff;
  for (const CanonVector& v : kGoogleVectors) {
    ASSERT_TRUE(diff.matches(v.input));
  }
}

TEST(CanonicalizeDifferentialTest, BrowseStaticPagesMatchTheReference) {
  const std::vector<std::string> urls = corpus_urls(4000);
  ASSERT_GT(urls.size(), 4000u);
  Differential diff;
  for (const std::string& url : urls) ASSERT_TRUE(diff.matches(url));
}

TEST(CanonicalizeDifferentialTest, SeededMutationsMatchTheReference) {
  std::vector<std::string> bases = corpus_urls(200);
  for (const CanonVector& v : kGoogleVectors) bases.emplace_back(v.input);
  Differential diff;
  util::Rng rng(20160630);
  constexpr int kMutations = 120000;
  for (int i = 0; i < kMutations; ++i) {
    std::string url = bases[rng.next_below(bases.size())];
    const std::uint64_t steps = 1 + rng.next_below(4);
    for (std::uint64_t step = 0; step < steps; ++step) mutate_once(url, rng);
    ASSERT_TRUE(diff.matches(url)) << "mutation " << i;
  }
}

}  // namespace
}  // namespace sbp::url
