// The canonicalizer and URL splitter as they stood before their clean
// components were copied once: every step ran on every input. Kept
// verbatim (url::parse_view and url::canonicalize_into, with the helpers
// they call) as the reference that url/canonicalize_differential_test.cpp
// holds the library's guarded steps to, field for field.
#pragma once

#include <array>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "url/canonicalize.hpp"
#include "url/url.hpp"
#include "util/hex.hpp"
#include "util/strings.hpp"

namespace sbp::url::reference {

inline bool is_scheme_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.';
}

inline UrlView parse_view(std::string_view raw) {
  UrlView parts;
  std::string_view rest = raw;

  // Scheme: "name://" with name = ALPHA *(scheme-char). We only treat it as
  // a scheme when followed by "//", matching Safe Browsing's behaviour of
  // defaulting bare hosts ("www.google.com/") to http.
  if (!rest.empty() &&
      ((rest[0] >= 'a' && rest[0] <= 'z') ||
       (rest[0] >= 'A' && rest[0] <= 'Z'))) {
    std::size_t i = 1;
    while (i < rest.size() && is_scheme_char(rest[i])) ++i;
    if (i + 2 < rest.size() && rest[i] == ':' && rest[i + 1] == '/' &&
        rest[i + 2] == '/') {
      parts.scheme = rest.substr(0, i);
      rest.remove_prefix(i + 3);
    }
  }

  // Fragment: everything after the FIRST '#'.
  if (const std::size_t hash = rest.find('#');
      hash != std::string_view::npos) {
    parts.fragment = rest.substr(hash + 1);
    parts.has_fragment = true;
    rest = rest.substr(0, hash);
  }

  // Authority ends at the first '/' or '?'.
  std::size_t authority_end = rest.find_first_of("/?");
  std::string_view authority = (authority_end == std::string_view::npos)
                                   ? rest
                                   : rest.substr(0, authority_end);
  std::string_view after = (authority_end == std::string_view::npos)
                               ? std::string_view{}
                               : rest.substr(authority_end);

  // Userinfo: up to the LAST '@' in the authority (matching browser/Chromium
  // behaviour for phishing URLs like http://google.com@evil.com/).
  if (const std::size_t at = authority.rfind('@');
      at != std::string_view::npos) {
    parts.userinfo = authority.substr(0, at);
    authority = authority.substr(at + 1);
  }

  // Port: after the last ':' (no IPv6 bracket support; the GSB spec predates
  // bracketed literals and the paper's analysis is IPv4/hostname only).
  if (const std::size_t colon = authority.rfind(':');
      colon != std::string_view::npos) {
    parts.port = authority.substr(colon + 1);
    authority = authority.substr(0, colon);
  }
  parts.host = authority;

  // Path / query.
  if (!after.empty()) {
    if (after[0] == '?') {
      parts.has_query = true;
      parts.query = after.substr(1);
    } else {
      const std::size_t q = after.find('?');
      if (q == std::string_view::npos) {
        parts.path = after;
      } else {
        parts.path = after.substr(0, q);
        parts.has_query = true;
        parts.query = after.substr(q + 1);
      }
    }
  }
  return parts;
}

/// Parses one host component as an IP-address number: "0x1a" (hex),
/// "012" (octal), "26" (decimal). Returns nullopt if non-numeric or > 2^32.
inline std::optional<std::uint64_t> parse_ip_component(std::string_view comp) {
  if (comp.empty()) return std::nullopt;
  std::uint64_t value = 0;
  std::size_t i = 0;
  int base = 10;
  if (comp.size() >= 2 && comp[0] == '0' &&
      (comp[1] == 'x' || comp[1] == 'X')) {
    base = 16;
    i = 2;
    if (i == comp.size()) return std::nullopt;  // bare "0x"
  } else if (comp.size() >= 2 && comp[0] == '0') {
    base = 8;
    i = 1;
  }
  for (; i < comp.size(); ++i) {
    const int digit = util::hex_digit_value(comp[i]);
    if (digit < 0 || digit >= base) return std::nullopt;
    value = value * static_cast<std::uint64_t>(base) +
            static_cast<std::uint64_t>(digit);
    if (value > 0xFFFFFFFFULL) return std::nullopt;
  }
  return value;
}

/// inet_aton-style IP parsing: the 32-bit address if `host` is a legal
/// 1-4 component numeric IP, else nullopt.
inline std::optional<std::uint32_t> ip_value(std::string_view host) {
  if (host.empty()) return std::nullopt;
  std::array<std::uint64_t, 4> values{};
  std::size_t n = 0;
  for (std::size_t start = 0;;) {
    if (n == values.size()) return std::nullopt;  // more than 4 components
    const std::size_t dot = host.find('.', start);
    const auto value = parse_ip_component(host.substr(
        start, dot == std::string_view::npos ? dot : dot - start));
    if (!value) return std::nullopt;
    values[n++] = *value;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }

  // inet_aton semantics: the first n-1 components are single bytes; the last
  // component fills the remaining 5-n bytes.
  std::uint32_t ip = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (values[i] > 0xFF) return std::nullopt;
    ip = (ip << 8) | static_cast<std::uint32_t>(values[i]);
  }
  const unsigned remaining_bytes = static_cast<unsigned>(5 - n);
  const std::uint64_t last_max =
      (remaining_bytes >= 4) ? 0xFFFFFFFFULL
                             : ((1ULL << (8 * remaining_bytes)) - 1);
  if (values[n - 1] > last_max) return std::nullopt;
  // Widened shift: remaining_bytes is 4 for a single-component IP, and a
  // 32-bit shift by 32 is UB (caught by the CI UBSan job).
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(ip) << (8 * remaining_bytes)) |
      values[n - 1]);
}

/// Step 4 into `out`: lowercase, drop leading/trailing dots, collapse dot
/// runs, and rewrite a numeric IP as dotted decimal. Returns whether the
/// host is an IP.
inline bool canonical_host_into(std::string_view host, std::string& out) {
  out.clear();
  for (const char raw : host) {
    const char c =
        static_cast<char>(std::tolower(static_cast<unsigned char>(raw)));
    if (c == '.' && (out.empty() || out.back() == '.')) continue;
    out.push_back(c);
  }
  while (!out.empty() && out.back() == '.') out.pop_back();

  const auto ip = ip_value(out);
  if (!ip) return false;
  out.clear();
  for (int shift = 24; shift >= 0; shift -= 8) {
    if (shift != 24) out.push_back('.');
    char digits[4];
    char* end = std::to_chars(digits, digits + sizeof(digits),
                              (*ip >> shift) & 0xFF)
                    .ptr;
    out.append(digits, end);
  }
  return true;
}

/// Step 5 into `out`: resolve "." and "..", and collapse empty segments
/// (runs of slashes). The result keeps a trailing slash when the input
/// semantically names a directory ("/a/", "/a/.", "/a/b/..").
inline void canonical_path_into(std::string_view path, std::string& out) {
  bool trailing_slash = path.empty() || path.back() == '/';
  // `out` holds "/seg1/seg2..." for the kept segments; ".." pops the last.
  out.clear();
  std::string_view last;
  for (std::size_t start = 0;;) {
    const std::size_t slash = path.find('/', start);
    last = path.substr(
        start, slash == std::string_view::npos ? slash : slash - start);
    if (last == "..") {
      if (!out.empty()) out.resize(out.rfind('/'));
    } else if (!last.empty() && last != ".") {
      out.push_back('/');
      out.append(last);
    }
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
  if (!path.empty() && (last == "." || last == "..")) trailing_slash = true;

  if (out.empty() || trailing_slash) out.push_back('/');
}

/// Step 6, appending to `out`.
inline void append_escaped(std::string& out, std::string_view input) {
  static constexpr char kHexUpper[] = "0123456789ABCDEF";
  for (char c : input) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte <= 0x20 || byte >= 0x7F || byte == '#' || byte == '%') {
      out.push_back('%');
      out.push_back(kHexUpper[byte >> 4]);
      out.push_back(kHexUpper[byte & 0x0F]);
    } else {
      out.push_back(c);
    }
  }
}

/// One percent-unescaping pass in place (the output is never longer than
/// the input). Returns whether any escape was decoded.
inline bool unescape_once_in_place(std::string& value) {
  std::size_t out = 0;
  bool decoded = false;
  for (std::size_t i = 0; i < value.size();) {
    const int hi = value[i] == '%' && i + 2 < value.size()
                       ? util::hex_digit_value(value[i + 1])
                       : -1;
    const int lo = hi >= 0 ? util::hex_digit_value(value[i + 2]) : -1;
    if (lo >= 0) {
      value[out++] = static_cast<char>((hi << 4) | lo);
      i += 3;
      decoded = true;
    } else {
      value[out++] = value[i++];
    }
  }
  value.resize(out);
  return decoded;
}

/// Step 3: unescape until a fixpoint.
inline void unescape_fully(std::string& value) {
  while (unescape_once_in_place(value)) {
  }
}

inline bool canonicalize_into(std::string_view raw, CanonicalUrl& out,
                       CanonicalizeScratch& scratch) {
  // 1. Trim surrounding whitespace, drop TAB/CR/LF anywhere.
  scratch.cleaned.clear();
  for (const char c : util::trim(raw, " \t\r\n")) {
    if (c != '\t' && c != '\r' && c != '\n') scratch.cleaned.push_back(c);
  }

  // 2-3. Parse (which strips the fragment), then repeatedly unescape the
  // remaining components until a fixpoint.
  const UrlView parts = parse_view(scratch.cleaned);
  std::string& part = scratch.part;

  // Userinfo and port are dropped: SB expressions never contain them (paper
  // Section 2.2.1's generic URL usr:pwd@a.b.c:port loses usr/pwd/port).
  part.assign(parts.host);
  unescape_fully(part);
  // Unescaping can surface authority delimiters that were hidden as %xx
  // ("a%40b" -> "a@b", "a%3A99" -> "a:99", "a%2Fb" -> "a/b"). Re-apply the
  // authority splitting so the output is a fixpoint of canonicalization.
  if (const std::size_t at = part.rfind('@'); at != std::string::npos) {
    part.erase(0, at + 1);
  }
  if (const std::size_t cut = part.find_first_of("/?");
      cut != std::string::npos) {
    part.resize(cut);  // spilled path/query bytes are dropped
  }
  if (const std::size_t colon = part.find(':'); colon != std::string::npos) {
    part.resize(colon);  // port (or junk after any ':') is dropped
  }
  out.host_is_ip = canonical_host_into(part, scratch.canonical);
  if (scratch.canonical.empty()) return false;
  out.host.clear();
  append_escaped(out.host, scratch.canonical);

  if (parts.scheme.empty()) {
    out.scheme.assign("http");
  } else {
    out.scheme.assign(parts.scheme);
    for (char& c : out.scheme) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }

  part.assign(parts.path);
  unescape_fully(part);
  canonical_path_into(part, scratch.canonical);
  out.path.clear();
  append_escaped(out.path, scratch.canonical);

  out.has_query = parts.has_query;
  out.query.clear();
  if (parts.has_query) {
    part.assign(parts.query);
    unescape_fully(part);
    append_escaped(out.query, part);
  }
  return true;
}

}  // namespace sbp::url::reference
