// Google Safe Browsing URL canonicalization (paper Section 2.2.1).
//
// Implements the canonicalization algorithm from the Safe Browsing v2/v3
// developer guide, which the paper's clients run before hashing:
//   1. strip leading/trailing whitespace; remove TAB/CR/LF anywhere;
//   2. remove the fragment;
//   3. repeatedly percent-unescape until a fixpoint;
//   4. hostname: drop userinfo & port, remove leading/trailing dots,
//      collapse consecutive dots, lowercase, and normalize any legal IP
//      encoding (decimal/octal/hex, 1-4 components) to dotted decimal;
//   5. path: resolve "/./" and "/../", collapse runs of '/'; query untouched;
//      empty path becomes "/";
//   6. re-escape bytes <= 0x20, >= 0x7f, '#' and '%'.
//
// canonicalize_into runs on every URL-cache miss, and most URLs are already
// canonical, so each step runs only where a scan shows it changes its
// component; the output is the same either way:
//   - no surrounding whitespace and no TAB/CR/LF: `raw` is parsed in place,
//     not copied into CanonicalizeScratch::cleaned;
//   - a component without '%' skips the unescaping pass;
//   - a host with no byte to escape, no ':' and no leading, trailing or
//     doubled dot is copied once, lowercased on the way (ASCII only); the
//     IP parse runs only on a host that starts with a digit;
//   - a path with no empty (before the last), "." or ".." segment skips
//     step 5;
//   - step 6 appends each run of bytes that need no escape in one append.
//
// The unit tests reproduce Google's published canonicalization test vectors
// verbatim.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace sbp::url {

/// A canonicalized URL, ready for decomposition + hashing.
struct CanonicalUrl {
  std::string scheme;  ///< "http" if the input had none
  std::string host;    ///< canonical hostname or dotted-decimal IP
  std::string path;    ///< canonical path, always starts with '/'
  std::string query;   ///< canonical query (no '?'), valid iff has_query
  bool has_query = false;
  bool host_is_ip = false;

  /// Full canonical URL, e.g. "http://www.google.com/q?r".
  [[nodiscard]] std::string spec() const;

  /// Canonical expression without the scheme ("host/path?query"), the form
  /// Safe Browsing hashes (and the form whose SHA-256 prefixes the paper
  /// publishes, e.g. "petsymposium.org/2016/cfp.php" -> 0xe70ee6d1).
  [[nodiscard]] std::string expression() const;
};

/// Working memory of canonicalize_into. Keep one per caller (or thread)
/// and reuse it: once its strings have grown to the inputs' sizes the
/// canonicalizer allocates nothing.
struct CanonicalizeScratch {
  std::string cleaned;    ///< input minus surrounding whitespace, TAB CR LF
  std::string part;       ///< the component being unescaped
  std::string canonical;  ///< its canonical form, before the escaping pass
};

/// THE canonicalizer: writes the canonical form of `raw` into `out`,
/// reusing its strings' storage. `raw` must not view `out`'s or
/// `scratch`'s strings. Returns false (leaving `out` unspecified) when no
/// host can be extracted at all (e.g. empty input); Safe Browsing treats
/// such inputs as unverifiable rather than malicious.
[[nodiscard]] bool canonicalize_into(std::string_view raw, CanonicalUrl& out,
                                     CanonicalizeScratch& scratch);

/// canonicalize_into with fresh buffers, or std::nullopt when no host can
/// be extracted.
[[nodiscard]] std::optional<CanonicalUrl> canonicalize(std::string_view raw);

/// Convenience: canonical spec string, or nullopt.
[[nodiscard]] std::optional<std::string> canonical_spec(std::string_view raw);

/// One pass of percent-unescaping; invalid escapes are copied through.
/// Exposed for tests.
[[nodiscard]] std::string percent_unescape_once(std::string_view input);

/// Final escaping pass: bytes <= 0x20, >= 0x7f, '#', '%' become %XX
/// (uppercase hex). Exposed for tests.
[[nodiscard]] std::string percent_escape(std::string_view input);

/// Canonicalizes just a hostname (steps 4 above). Exposed for tests and for
/// the corpus generator. Returns the canonical host and whether it is an IP.
struct CanonicalHost {
  std::string host;
  bool is_ip = false;
};
[[nodiscard]] CanonicalHost canonicalize_host(std::string_view host);

}  // namespace sbp::url
