#include "url/canonicalize.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>

#include "url/url.hpp"
#include "util/hex.hpp"
#include "util/strings.hpp"

namespace sbp::url {

namespace {

/// Parses one host component as an IP-address number: "0x1a" (hex),
/// "012" (octal), "26" (decimal). Returns nullopt if non-numeric or > 2^32.
std::optional<std::uint64_t> parse_ip_component(std::string_view comp) {
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
std::optional<std::uint32_t> ip_value(std::string_view host) {
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

char ascii_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Bytes the escaping pass (step 6) rewrites as %XX.
bool needs_escape(char c) noexcept {
  const auto byte = static_cast<unsigned char>(c);
  return byte <= 0x20 || byte >= 0x7F || byte == '#' || byte == '%';
}

/// Rewrites `host` as dotted decimal if it is a numeric IP; returns whether
/// it was. Only a host that starts with a digit can be one.
bool rewrite_ip(std::string& host) {
  if (host.empty() || host[0] < '0' || host[0] > '9') return false;
  const auto ip = ip_value(host);
  if (!ip) return false;
  host.clear();
  for (int shift = 24; shift >= 0; shift -= 8) {
    if (shift != 24) host.push_back('.');
    char digits[4];
    char* end = std::to_chars(digits, digits + sizeof(digits),
                              (*ip >> shift) & 0xFF)
                    .ptr;
    host.append(digits, end);
  }
  return true;
}

/// Step 4 into `out`: lowercase, drop leading/trailing dots, collapse dot
/// runs, and rewrite a numeric IP as dotted decimal. Returns whether the
/// host is an IP.
bool canonical_host_into(std::string_view host, std::string& out) {
  out.clear();
  for (const char raw : host) {
    const char c = ascii_lower(raw);
    if (c == '.' && (out.empty() || out.back() == '.')) continue;
    out.push_back(c);
  }
  while (!out.empty() && out.back() == '.') out.pop_back();
  return rewrite_ip(out);
}

/// Whether step 6 escapes any byte of `text` (a scan without an early
/// exit, which the compiler vectorizes).
bool any_escaped(std::string_view text) noexcept {
  bool found = false;
  for (const char c : text) found |= needs_escape(c);
  return found;
}

/// Copies `host` into `out`, lowercased, if steps 3-6 would leave it as it
/// is up to case: no escape to decode, no byte to re-escape, no ':' (the
/// parser leaves all but the last one to cut), no leading, trailing or
/// doubled dot. Returns false (leaving `out` untouched) otherwise.
bool copy_clean_host(std::string_view host, std::string& out) {
  if (host.empty() || host.front() == '.' || host.back() == '.' ||
      any_escaped(host) || host.find(':') != std::string_view::npos ||
      host.find("..") != std::string_view::npos) {
    return false;
  }
  out.resize(host.size());
  std::transform(host.begin(), host.end(), out.begin(), ascii_lower);
  return true;
}

/// Step 5 into `out`: resolve "." and "..", and collapse empty segments
/// (runs of slashes). The result keeps a trailing slash when the input
/// semantically names a directory ("/a/", "/a/.", "/a/b/..").
void canonical_path_into(std::string_view path, std::string& out) {
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

/// Whether steps 3, 5 and 6 leave `path` as it is: it starts with '/',
/// holds no '%' and no byte to escape, and has no empty segment before its
/// last and no "." or ".." segment.
bool is_clean_path(std::string_view path) noexcept {
  if (path.empty() || path[0] != '/' || any_escaped(path)) return false;
  for (std::size_t slash = 0; slash != std::string_view::npos;
       slash = path.find('/', slash + 1)) {
    const std::string_view next = path.substr(slash + 1);
    if (next.empty()) break;  // a trailing slash names a directory
    if (next[0] == '/') return false;
    if (next[0] == '.') {
      const std::size_t dots = next.size() > 1 && next[1] == '.' ? 2 : 1;
      if (dots == next.size() || next[dots] == '/') return false;
    }
  }
  return true;
}

/// Step 6, appending to `out`: each run of bytes that need no escape goes
/// in with one append.
void append_escaped(std::string& out, std::string_view input) {
  static constexpr char kHexUpper[] = "0123456789ABCDEF";
  std::size_t run = 0;
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (!needs_escape(input[i])) continue;
    const auto byte = static_cast<unsigned char>(input[i]);
    const char escaped[] = {'%', kHexUpper[byte >> 4], kHexUpper[byte & 0x0F]};
    out.append(input.data() + run, i - run);
    out.append(escaped, sizeof(escaped));
    run = i + 1;
  }
  out.append(input.data() + run, input.size() - run);
}

/// One percent-unescaping pass in place (the output is never longer than
/// the input). Returns whether any escape was decoded.
bool unescape_once_in_place(std::string& value) {
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
void unescape_fully(std::string& value) {
  while (unescape_once_in_place(value)) {
  }
}

/// Step 3 for a component: `text` itself when it holds no '%', else its
/// fixpoint unescaping in `part`.
std::string_view unescaped(std::string_view text, std::string& part) {
  if (text.find('%') == std::string_view::npos) return text;
  part.assign(text);
  unescape_fully(part);
  return part;
}

/// Whether step 1 changes `raw`: surrounding whitespace or a TAB/CR/LF
/// (a scan without an early exit, which the compiler vectorizes).
bool needs_cleaning(std::string_view raw) noexcept {
  if (raw.empty()) return false;
  bool found = raw.front() == ' ' || raw.back() == ' ';
  for (const char c : raw) found |= c == '\t' || c == '\r' || c == '\n';
  return found;
}

/// Steps 3, 4 and 6 for the host into out.host and out.host_is_ip; false
/// when nothing is left of it.
bool canonicalize_host_into(std::string_view host, CanonicalUrl& out,
                            CanonicalizeScratch& scratch) {
  if (copy_clean_host(host, out.host)) {
    out.host_is_ip = rewrite_ip(out.host);
    return true;
  }
  // Unescaping can surface authority delimiters that were hidden as %xx
  // ("a%40b" -> "a@b", "a%3A99" -> "a:99", "a%2Fb" -> "a/b"), and the
  // parser cut only the last ':'. Re-apply the authority splitting so the
  // output is a fixpoint of canonicalization.
  std::string_view name = unescaped(host, scratch.part);
  if (const std::size_t at = name.rfind('@'); at != std::string_view::npos) {
    name.remove_prefix(at + 1);
  }
  if (const std::size_t cut = std::min(name.find('/'), name.find('?'));
      cut != std::string_view::npos) {
    name = name.substr(0, cut);  // spilled path/query bytes are dropped
  }
  if (const std::size_t colon = name.find(':');
      colon != std::string_view::npos) {
    name = name.substr(0, colon);  // port (or junk after any ':') is dropped
  }
  out.host_is_ip = canonical_host_into(name, scratch.canonical);
  if (scratch.canonical.empty()) return false;
  out.host.clear();
  append_escaped(out.host, scratch.canonical);
  return true;
}

}  // namespace

std::string percent_unescape_once(std::string_view input) {
  std::string out(input);
  unescape_once_in_place(out);
  return out;
}

std::string percent_escape(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  append_escaped(out, input);
  return out;
}

CanonicalHost canonicalize_host(std::string_view host) {
  CanonicalHost out;
  out.is_ip = canonical_host_into(host, out.host);
  return out;
}

bool canonicalize_into(std::string_view raw, CanonicalUrl& out,
                       CanonicalizeScratch& scratch) {
  // 1. Trim surrounding whitespace, drop TAB/CR/LF anywhere -- into
  // `cleaned`, unless there is nothing to drop.
  std::string_view line = raw;
  if (needs_cleaning(raw)) {
    scratch.cleaned.clear();
    for (const char c : util::trim(raw, " \t\r\n")) {
      if (c != '\t' && c != '\r' && c != '\n') scratch.cleaned.push_back(c);
    }
    line = scratch.cleaned;
  }

  // 2-3. Parse (which strips the fragment), then repeatedly unescape the
  // remaining components until a fixpoint.
  const UrlView parts = parse_view(line);

  // Userinfo and port are dropped: SB expressions never contain them (paper
  // Section 2.2.1's generic URL usr:pwd@a.b.c:port loses usr/pwd/port).
  if (!canonicalize_host_into(parts.host, out, scratch)) return false;

  if (parts.scheme.empty()) {
    out.scheme.assign("http");
  } else {
    out.scheme.resize(parts.scheme.size());
    std::transform(parts.scheme.begin(), parts.scheme.end(),
                   out.scheme.begin(), ascii_lower);
  }

  if (is_clean_path(parts.path)) {
    out.path.assign(parts.path);
  } else {
    canonical_path_into(unescaped(parts.path, scratch.part),
                        scratch.canonical);
    out.path.clear();
    append_escaped(out.path, scratch.canonical);
  }

  out.has_query = parts.has_query;
  out.query.clear();
  if (parts.has_query) {
    append_escaped(out.query, unescaped(parts.query, scratch.part));
  }
  return true;
}

std::optional<CanonicalUrl> canonicalize(std::string_view raw) {
  CanonicalUrl url;
  CanonicalizeScratch scratch;
  if (!canonicalize_into(raw, url, scratch)) return std::nullopt;
  return url;
}

std::optional<std::string> canonical_spec(std::string_view raw) {
  const auto url = canonicalize(raw);
  if (!url) return std::nullopt;
  return url->spec();
}

std::string CanonicalUrl::spec() const {
  std::string out = scheme + "://" + host + path;
  if (has_query) {
    out += '?';
    out += query;
  }
  return out;
}

std::string CanonicalUrl::expression() const {
  std::string out = host + path;
  if (has_query) {
    out += '?';
    out += query;
  }
  return out;
}

}  // namespace sbp::url
