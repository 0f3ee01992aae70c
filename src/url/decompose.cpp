#include "url/decompose.hpp"

#include <algorithm>

namespace sbp::url {

namespace {

constexpr std::size_t kMaxRootPrefixes = 4;  // "/", "/a/", "/a/b/", "/a/b/c/"

using HostViews = std::array<std::string_view, kMaxHostSuffixes>;
using PathEnds = std::array<std::uint32_t, kMaxPathPrefixes>;

/// The host-suffix candidates, as views of `host`: the exact host, then
/// from the last min(5, n) components, dropping leading components one at
/// a time and stopping at 2 components. Each candidate is a tail of the
/// host string (joining a tail's components re-inserts the same dots), so
/// no bytes are copied. Returns the count.
std::size_t host_suffix_views(std::string_view host, bool host_is_ip,
                              HostViews& out) {
  std::size_t n = 0;
  out[n++] = host;
  if (host_is_ip) return n;

  const auto comps =
      static_cast<std::size_t>(std::count(host.begin(), host.end(), '.')) + 1;
  if (comps <= 2) return n;
  const std::size_t first =
      comps > kMaxHostSuffixes ? comps - kMaxHostSuffixes : 0;
  // Component `comp` starts at `offset`; the tail at offset 0 is the exact
  // host, which is already first.
  for (std::size_t comp = 0, offset = 0;
       comp + 2 <= comps && n < kMaxHostSuffixes; ++comp) {
    if (comp >= first && offset != 0) out[n++] = host.substr(offset);
    offset = host.find('.', offset) + 1;
  }
  return n;
}

/// The path-prefix candidates, back to back in `buf` (candidate i ends at
/// ends[i]), deduplicated in first-seen order: the exact path with query
/// (if any), the exact path, "/", then up to 3 more root-anchored
/// directory prefixes "/c1/", "/c1/c2/", ... Returns the count.
std::size_t path_prefixes_into(std::string_view path, std::string_view query,
                               bool has_query, std::string& buf,
                               PathEnds& ends) {
  buf.clear();
  // Every candidate fits in path + query + 2 bytes, so after this reserve
  // no append reallocates and `buf` may copy from itself.
  buf.reserve(kMaxPathPrefixes * (path.size() + query.size() + 2));
  std::size_t n = 0;
  const auto begin = [&ends](std::size_t i) -> std::size_t {
    return i == 0 ? 0 : ends[i - 1];
  };
  // Keeps the candidate appended after entry n-1 unless it repeats an
  // entry; returns the index of the entry holding its bytes either way.
  const auto commit = [&]() -> std::size_t {
    const std::string_view all(buf);
    const std::string_view candidate = all.substr(begin(n));
    for (std::size_t i = 0; i < n; ++i) {
      if (all.substr(begin(i), ends[i] - begin(i)) == candidate) {
        buf.resize(begin(n));
        return i;
      }
    }
    ends[n] = static_cast<std::uint32_t>(buf.size());
    return n++;
  };

  if (has_query) {
    buf.append(path);
    buf.push_back('?');
    buf.append(query);
    commit();
  }
  buf.append(path);
  commit();

  // Root-anchored directory prefixes: "/", "/c1/", "/c1/c2/", ... Each
  // extends the previous one. The final segment is the file part (or empty
  // for directory paths); only intermediate components become directory
  // prefixes, and empty ones are skipped.
  buf.push_back('/');
  std::size_t prefix = commit();
  std::size_t slash = path.find('/');
  for (std::size_t roots = 1;
       slash != std::string_view::npos && roots < kMaxRootPrefixes;) {
    const std::size_t next = path.find('/', slash + 1);
    if (next == std::string_view::npos) break;
    const std::string_view segment = path.substr(slash + 1, next - slash - 1);
    slash = next;
    if (segment.empty()) continue;
    buf.append(buf.data() + begin(prefix), ends[prefix] - begin(prefix));
    buf.append(segment);
    buf.push_back('/');
    prefix = commit();
    ++roots;
  }
  return n;
}

}  // namespace

std::vector<std::string> host_suffixes(std::string_view host,
                                       bool host_is_ip) {
  HostViews views;
  const std::size_t n = host_suffix_views(host, host_is_ip, views);
  return std::vector<std::string>(views.begin(), views.begin() + n);
}

std::vector<std::string> path_prefixes(std::string_view path,
                                       std::string_view query,
                                       bool has_query) {
  std::string buf;
  PathEnds ends;
  const std::size_t n = path_prefixes_into(path, query, has_query, buf, ends);
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0, begin = 0; i < n; begin = ends[i++]) {
    out.emplace_back(buf, begin, ends[i] - begin);
  }
  return out;
}

void decompose_into(const CanonicalUrl& url, PackedExpressions& out) {
  HostViews hosts;
  const std::size_t host_count =
      host_suffix_views(url.host, url.host_is_ip, hosts);
  PathEnds path_ends;
  const std::size_t path_count = path_prefixes_into(
      url.path, url.query, url.has_query, out.paths, path_ends);

  std::size_t bytes = host_count * out.paths.size();
  for (std::size_t h = 0; h < host_count; ++h) {
    bytes += path_count * hosts[h].size();
  }
  out.text.clear();
  out.text.reserve(bytes);
  out.count = 0;
  for (std::size_t h = 0; h < host_count; ++h) {
    for (std::size_t p = 0, begin = 0; p < path_count; begin = path_ends[p++]) {
      out.text.append(hosts[h]);
      out.text.append(out.paths, begin, path_ends[p] - begin);
      out.host_sizes[out.count] = static_cast<std::uint32_t>(hosts[h].size());
      out.ends[out.count++] = static_cast<std::uint32_t>(out.text.size());
    }
  }
}

std::vector<Decomposition> decompose(const CanonicalUrl& url) {
  PackedExpressions packed;
  decompose_into(url, packed);
  std::string exact_path = url.path;
  if (url.has_query) {
    exact_path += '?';
    exact_path += url.query;
  }
  std::vector<Decomposition> out(packed.count);
  for (std::size_t i = 0; i < packed.count; ++i) {
    const std::string_view expression = packed[i];
    Decomposition& d = out[i];
    d.expression = expression;
    d.host = expression.substr(0, packed.host_sizes[i]);
    d.path = expression.substr(packed.host_sizes[i]);
    d.is_exact = d.host == url.host && d.path == exact_path;
  }
  return out;
}

std::vector<Decomposition> decompose(std::string_view raw_url) {
  const auto canonical = canonicalize(raw_url);
  if (!canonical) return {};
  return decompose(*canonical);
}

std::vector<std::string> decompose_expressions(std::string_view raw_url) {
  std::vector<std::string> out;
  for (auto& d : decompose(raw_url)) out.push_back(std::move(d.expression));
  return out;
}

std::vector<crypto::Prefix32> decompose_prefixes(std::string_view raw_url) {
  std::vector<crypto::Prefix32> out;
  for (const auto& d : decompose(raw_url)) {
    out.push_back(crypto::prefix32_of(d.expression));
  }
  return out;
}

}  // namespace sbp::url
