#include "url/url.hpp"

#include "util/strings.hpp"

namespace sbp::url {

namespace {

bool is_scheme_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.';
}

}  // namespace

UrlView parse_view(std::string_view raw) {
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

  // One scan to the end of the authority -- the first '/', '?' or '#' --
  // that notes the last '@' and ':' on the way (find_first_of would search
  // the delimiter set once per byte).
  constexpr std::size_t npos = std::string_view::npos;
  std::size_t authority_end = 0;
  std::size_t at = npos;
  std::size_t colon = npos;
  for (; authority_end < rest.size(); ++authority_end) {
    const char c = rest[authority_end];
    if (c == '/' || c == '?' || c == '#') break;
    if (c == '@') {
      at = authority_end;
    } else if (c == ':') {
      colon = authority_end;
    }
  }

  // Fragment: everything after the FIRST '#'.
  if (const std::size_t hash = rest.find('#', authority_end); hash != npos) {
    parts.fragment = rest.substr(hash + 1);
    parts.has_fragment = true;
    rest = rest.substr(0, hash);
  }
  const std::string_view after = rest.substr(authority_end);

  // Userinfo: up to the LAST '@' in the authority (matching browser/Chromium
  // behaviour for phishing URLs like http://google.com@evil.com/).
  std::size_t host_begin = 0;
  if (at != npos) {
    parts.userinfo = rest.substr(0, at);
    host_begin = at + 1;
  }

  // Port: after the last ':' past the userinfo (no IPv6 bracket support;
  // the GSB spec predates bracketed literals and the paper's analysis is
  // IPv4/hostname only).
  std::size_t host_end = authority_end;
  if (colon != npos && (at == npos || colon > at)) {
    parts.port = rest.substr(colon + 1, authority_end - colon - 1);
    host_end = colon;
  }
  parts.host = rest.substr(host_begin, host_end - host_begin);

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

UrlParts parse(std::string_view raw) {
  const UrlView view = parse_view(raw);
  UrlParts parts;
  parts.scheme = util::to_lower(view.scheme);
  parts.userinfo = std::string(view.userinfo);
  parts.host = std::string(view.host);
  parts.port = std::string(view.port);
  parts.path = std::string(view.path);
  parts.query = std::string(view.query);
  parts.has_query = view.has_query;
  parts.fragment = std::string(view.fragment);
  parts.has_fragment = view.has_fragment;
  return parts;
}

std::string to_string(const UrlParts& parts) {
  std::string out;
  if (!parts.scheme.empty()) {
    out += parts.scheme;
    out += "://";
  }
  if (!parts.userinfo.empty()) {
    out += parts.userinfo;
    out += '@';
  }
  out += parts.host;
  if (!parts.port.empty()) {
    out += ':';
    out += parts.port;
  }
  out += parts.path;
  if (parts.has_query) {
    out += '?';
    out += parts.query;
  }
  if (parts.has_fragment) {
    out += '#';
    out += parts.fragment;
  }
  return out;
}

}  // namespace sbp::url
