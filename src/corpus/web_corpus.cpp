#include "corpus/web_corpus.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace sbp::corpus {

namespace {

constexpr std::array<std::string_view, 8> kTlds = {
    "com", "net", "org", "ru", "info", "biz", "co.uk", "com.au"};

constexpr std::array<std::string_view, 10> kSubdomains = {
    "www", "m", "fr", "nl", "blog", "shop", "mail", "mobile", "en", "cdn"};

constexpr std::array<std::string_view, 8> kDirWords = {
    "tag", "user", "wp", "menu", "2016", "cat", "img", "data"};

constexpr std::array<std::string_view, 6> kFileExts = {
    ".html", ".php", ".pwf", ".asp", ".aspx", ""};

/// One entry of a site's directory pool. The deepest directory is "/"
/// plus five "word<digit>/" components: at most 31 bytes.
struct Directory {
  char path[32];
  std::size_t size;   ///< bytes of path
  std::size_t depth;  ///< number of '/' in path: "/" is 1, "/a0/" is 2
};

void append_number(std::string& out, std::uint64_t value) {
  char digits[20];
  char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out.append(digits, end);
}

/// A file page's path: dir + "p" + page_index + ext.
void append_file_path(std::string& out, std::string_view dir,
                      std::uint64_t index, std::string_view ext) {
  out += dir;
  out += 'p';
  append_number(out, index);
  out += ext;
}

/// Per-thread open-addressed set of a site's directory-index pages, as
/// page indices into the site being generated. Only index pages can
/// collide: a file page's name carries its unique page index, and only an
/// index page's path ends in '/'.
class IndexPageSet {
 public:
  /// Empties the set, sized for up to `pages` members at load <= 1/2.
  void reset(std::uint64_t pages) {
    slots_.assign(std::bit_ceil(std::max<std::uint64_t>(8, 2 * pages)), 0);
  }

  /// Adds page `page`, whose expression is the tail of `site.bytes` after
  /// the last recorded end; false if an equal page is already a member.
  bool insert(const PackedSite& site, std::size_t page) {
    const std::size_t begin = site.ends.empty() ? 0 : site.ends.back();
    const std::string_view candidate =
        std::string_view(site.bytes).substr(begin);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = std::hash<std::string_view>{}(candidate) & mask;;
         i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        slots_[i] = page + 1;
        return true;
      }
      if (site.expression(slots_[i] - 1) == candidate) return false;
    }
  }

 private:
  std::vector<std::size_t> slots_;  ///< page index + 1; 0 = empty
};

}  // namespace

CorpusConfig CorpusConfig::alexa_like(std::size_t hosts, std::uint64_t seed) {
  CorpusConfig config;
  config.num_hosts = hosts;
  config.seed = seed;
  config.single_page_fraction = 0.0;
  // Popular hosts host more pages: raise the floor so the Alexa curve sits
  // above the random curve in Figure 5a, as in the paper.
  config.min_pages = 4;
  config.subdomain_probability = 0.25;
  return config;
}

CorpusConfig CorpusConfig::random_like(std::size_t hosts,
                                       std::uint64_t seed) {
  CorpusConfig config;
  config.num_hosts = hosts;
  config.seed = seed ^ 0x9d2c5680aad2f1ULL;  // distinct stream from Alexa
  config.single_page_fraction = 0.61;        // paper Section 6.2
  // Non-forced hosts draw from X >= 2 so the overall single-page mass is
  // exactly the forced fraction.
  config.min_pages = 2;
  config.subdomain_probability = 0.12;
  return config;
}

std::string Page::expression() const {
  std::string out = host + path;
  if (has_query) {
    out += '?';
    out += query;
  }
  return out;
}

std::string Page::url() const { return "http://" + expression(); }

WebCorpus::WebCorpus(CorpusConfig config)
    : config_(config),
      page_sampler_(config.alpha, std::max<std::uint64_t>(1, config.min_pages),
                    std::max<std::uint64_t>(config.min_pages,
                                            config.max_pages)) {}

util::Rng WebCorpus::site_rng(std::size_t index) const {
  // Mix the seed and index through splitmix so neighbouring sites get
  // uncorrelated streams.
  std::uint64_t state = config_.seed;
  (void)util::splitmix64(state);
  state ^= 0x1234567 + static_cast<std::uint64_t>(index) * 0x9E3779B97F4A7C15ULL;
  return util::Rng(util::splitmix64(state));
}

std::string_view WebCorpus::domain_of(std::size_t index, util::Rng& rng,
                                      DomainBuffer& out) {
  // "site%06zu.<tld>": the index zero-padded to at least six digits.
  const std::string_view tld = kTlds[rng.next_below(kTlds.size())];
  char digits[20];
  char* end = std::to_chars(digits, digits + sizeof(digits), index).ptr;
  const std::size_t width = static_cast<std::size_t>(end - digits);
  char* cursor = std::copy_n("site", 4, out.data());
  if (width < 6) cursor = std::fill_n(cursor, 6 - width, '0');
  cursor = std::copy(digits, end, cursor);
  *cursor++ = '.';
  cursor = std::copy(tld.begin(), tld.end(), cursor);
  return std::string_view(out.data(),
                          static_cast<std::size_t>(cursor - out.data()));
}

std::uint64_t WebCorpus::page_count(util::Rng& rng) const {
  if (config_.single_page_fraction > 0.0 &&
      rng.next_bool(config_.single_page_fraction)) {
    return 1;
  }
  return page_sampler_.sample(rng);
}

std::string WebCorpus::site_domain(std::size_t index) const {
  util::Rng rng = site_rng(index);
  DomainBuffer domain;
  return std::string(domain_of(index, rng, domain));
}

std::uint64_t WebCorpus::site_page_count(std::size_t index) const {
  util::Rng rng = site_rng(index);
  (void)rng.next();  // burn the TLD draw so counts match site()
  return page_count(rng);
}

std::size_t WebCorpus::site_into(std::size_t index, PackedSite& out,
                                 std::uint64_t max_pages) const {
  util::Rng rng = site_rng(index);
  DomainBuffer domain_buffer;  // on the stack: a miss allocates no domain
  const std::string_view domain = domain_of(index, rng, domain_buffer);
  // Each page's draws follow the previous page's on one stream, so
  // stopping early leaves the pages before the limit unchanged.
  const std::uint64_t pages = std::min(page_count(rng), max_pages);
  out.bytes.clear();
  out.ends.clear();
  out.ends.reserve(pages);

  // Directory pool: grown as pages are placed; "/" is always present.
  std::array<Directory, 64> directories;
  directories[0] = {{'/'}, 1, 1};
  std::size_t directory_count = 1;
  // Guard against duplicate pages (two index pages of the same directory):
  // crawl data has unique URLs per host, and the experiments' ground truth
  // relies on it.
  thread_local IndexPageSet index_pages;
  index_pages.reset(pages);
  char dir[sizeof(Directory::path)];
  std::size_t renamed = 0;

  for (std::uint64_t p = 0; p < pages; ++p) {
    // Host: registrable domain or one of its subdomains.
    if (rng.next_bool(config_.subdomain_probability)) {
      out.bytes += kSubdomains[rng.next_below(kSubdomains.size())];
      out.bytes += '.';
    }
    out.bytes += domain;
    const std::size_t host_end = out.bytes.size();

    // Depth draw per the shallow-heavy distribution.
    double draw = rng.next_double();
    std::size_t depth = 1;
    for (double weight : CorpusConfig::kDepthWeights) {
      if (draw < weight) break;
      draw -= weight;
      ++depth;
    }
    if (depth > 6) depth = 6;

    // Build (or reuse) a directory of depth-1 components.
    dir[0] = '/';
    std::size_t dir_size = 1;
    std::size_t dir_depth = 1;
    if (depth > 1) {
      // Reuse an existing directory 70% of the time to create the shared
      // path prefixes that drive Type I collisions.
      if (rng.next_bool(0.7)) {
        const Directory& reused =
            directories[rng.next_below(directory_count)];
        std::copy_n(reused.path, reused.size, dir);
        dir_size = reused.size;
        dir_depth = reused.depth;
      }
      // Extend to the target depth.
      while (dir_depth < depth) {
        const std::string_view word =
            kDirWords[rng.next_below(kDirWords.size())];
        dir_size = static_cast<std::size_t>(
            std::copy(word.begin(), word.end(), dir + dir_size) - dir);
        dir[dir_size++] = static_cast<char>('0' + rng.next_below(10));
        dir[dir_size++] = '/';
        ++dir_depth;
        if (directory_count < directories.size()) {
          Directory& added = directories[directory_count++];
          std::copy_n(dir, dir_size, added.path);
          added.size = dir_size;
          added.depth = dir_depth;
        }
      }
    }
    const std::string_view dir_path(dir, dir_size);

    const bool index_page =
        rng.next_bool(config_.directory_page_probability);
    if (index_page) {
      out.bytes += dir_path;
    } else {
      append_file_path(out.bytes, dir_path, p,
                       kFileExts[rng.next_below(kFileExts.size())]);
    }

    const bool has_query = rng.next_bool(config_.query_probability);
    const std::uint64_t query = has_query ? rng.next_below(1000) : 0;
    if (has_query) {
      out.bytes += "?id=";
      append_number(out.bytes, query);
    }

    if (index_page && !index_pages.insert(out, p)) {
      // Duplicate (a directory index drawn twice): fall back to a file page
      // named by the page index, which is unique by construction.
      ++renamed;
      out.bytes.resize(host_end);
      append_file_path(out.bytes, dir_path, p, ".html");
      if (has_query) {
        out.bytes += "?id=";
        append_number(out.bytes, query);
      }
    }
    if (out.bytes.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("WebCorpus: site exceeds 4 GiB of URLs");
    }
    out.ends.push_back(static_cast<std::uint32_t>(out.bytes.size()));
  }
  return renamed;
}

Site WebCorpus::site(std::size_t index) const {
  PackedSite packed;
  site_into(index, packed);
  Site site;
  site.domain = site_domain(index);
  site.pages.resize(packed.size());
  for (std::size_t i = 0; i < packed.size(); ++i) {
    const std::string_view expression = packed.expression(i);
    const std::size_t path = expression.find('/');
    const std::size_t query = expression.find('?', path);
    Page& page = site.pages[i];
    page.host = expression.substr(0, path);
    page.path = expression.substr(path, query - path);
    page.has_query = query != std::string_view::npos;
    if (page.has_query) page.query = expression.substr(query + 1);
  }
  return site;
}

void WebCorpus::for_each_site(
    const std::function<void(const Site&)>& fn) const {
  for (std::size_t i = 0; i < config_.num_hosts; ++i) {
    const Site s = site(i);
    fn(s);
  }
}

}  // namespace sbp::corpus
