#include "corpus/web_corpus.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <string_view>
#include <unordered_set>

namespace sbp::corpus {

namespace {

constexpr std::array<const char*, 8> kTlds = {
    "com", "net", "org", "ru", "info", "biz", "co.uk", "com.au"};

constexpr std::array<const char*, 10> kSubdomains = {
    "www", "m", "fr", "nl", "blog", "shop", "mail", "mobile", "en", "cdn"};

constexpr std::array<const char*, 8> kDirWords = {
    "tag", "user", "wp", "menu", "2016", "cat", "img", "data"};

constexpr std::array<const char*, 6> kFileExts = {".html", ".php",  ".pwf",
                                                  ".asp",  ".aspx", ""};

/// One entry of a site's directory pool.
struct Directory {
  std::string path;   ///< e.g. "/tag3/wp1/"
  std::size_t depth;  ///< number of '/' in path: "/" is 1, "/a0/" is 2
};

void append_number(std::string& out, std::uint64_t value) {
  char digits[20];
  char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out.append(digits, end);
}

/// page.path = dir + "p" + page_index + ext, in one allocation at most.
void set_file_path(Page& page, const std::string& dir, std::uint64_t index,
                   std::string_view ext) {
  char digits[20];
  char* end = std::to_chars(digits, digits + sizeof(digits), index).ptr;
  const std::size_t width = static_cast<std::size_t>(end - digits);
  page.path.clear();
  page.path.reserve(dir.size() + 1 + width + ext.size());
  page.path += dir;
  page.path += 'p';
  page.path.append(digits, end);
  page.path += ext;
}

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
  std::string out;
  append_expression_to(out);
  return out;
}

void Page::append_expression_to(std::string& out) const {
  out += host;
  out += path;
  if (has_query) {
    out += '?';
    out += query;
  }
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

std::string WebCorpus::domain_of(std::size_t index, util::Rng& rng) {
  // "site%06zu.<tld>": the index zero-padded to at least six digits.
  const char* tld = kTlds[rng.next_below(kTlds.size())];
  char digits[20];
  char* end = std::to_chars(digits, digits + sizeof(digits), index).ptr;
  const std::size_t width = static_cast<std::size_t>(end - digits);
  std::string domain;
  domain.reserve(4 + std::max<std::size_t>(6, width) + 1 + std::strlen(tld));
  domain += "site";
  if (width < 6) domain.append(6 - width, '0');
  domain.append(digits, end);
  domain += '.';
  domain += tld;
  return domain;
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
  return domain_of(index, rng);
}

std::uint64_t WebCorpus::site_page_count(std::size_t index) const {
  util::Rng rng = site_rng(index);
  (void)rng.next();  // burn the TLD draw so counts match site()
  return page_count(rng);
}

Site WebCorpus::site(std::size_t index) const {
  util::Rng rng = site_rng(index);
  Site site;
  site.domain = domain_of(index, rng);
  const std::uint64_t pages = page_count(rng);
  site.pages.reserve(pages);

  // Directory pool: grown as pages are placed; "/" is always present.
  std::vector<Directory> directories = {{"/", 1}};
  // Guard against duplicate pages (two index pages of the same directory):
  // crawl data has unique URLs per host, and the experiments' ground truth
  // relies on it. Only directory-index pages can collide: a file page's
  // name carries its unique page index, and only an index page's path ends
  // in '/'. So only index pages are tracked, as indices into site.pages.
  const auto page_hash = [&site](std::size_t i) {
    const Page& page = site.pages[i];
    const std::hash<std::string_view> hash;
    return hash(page.host) ^ (hash(page.path) * 31) ^ (hash(page.query) * 961);
  };
  const auto same_page = [&site](std::size_t a, std::size_t b) {
    const Page& x = site.pages[a];
    const Page& y = site.pages[b];
    return x.host == y.host && x.path == y.path &&
           x.has_query == y.has_query && x.query == y.query;
  };
  std::unordered_set<std::size_t, decltype(page_hash), decltype(same_page)>
      index_pages(0, page_hash, same_page);
  std::string dir;

  for (std::uint64_t p = 0; p < pages; ++p) {
    Page& page = site.pages.emplace_back();

    // Host: registrable domain or one of its subdomains.
    if (rng.next_bool(config_.subdomain_probability)) {
      const std::string_view sub =
          kSubdomains[rng.next_below(kSubdomains.size())];
      page.host.reserve(sub.size() + 1 + site.domain.size());
      page.host += sub;
      page.host += '.';
      page.host += site.domain;
    } else {
      page.host = site.domain;
    }

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
    dir.assign(1, '/');
    std::size_t dir_depth = 1;
    if (depth > 1) {
      // Reuse an existing directory 70% of the time to create the shared
      // path prefixes that drive Type I collisions.
      if (rng.next_bool(0.7)) {
        const Directory& reused =
            directories[rng.next_below(directories.size())];
        dir = reused.path;
        dir_depth = reused.depth;
      }
      // Extend to the target depth.
      while (dir_depth < depth) {
        dir += kDirWords[rng.next_below(kDirWords.size())];
        dir += static_cast<char>('0' + rng.next_below(10));
        dir += '/';
        ++dir_depth;
        if (directories.size() < 64) directories.push_back({dir, dir_depth});
      }
    }

    const bool index_page =
        rng.next_bool(config_.directory_page_probability);
    if (index_page) {
      page.path = dir;
    } else {
      set_file_path(page, dir, p, kFileExts[rng.next_below(kFileExts.size())]);
    }

    if (rng.next_bool(config_.query_probability)) {
      page.has_query = true;
      page.query = "id=";
      append_number(page.query, rng.next_below(1000));
    }

    if (index_page && !index_pages.insert(p).second) {
      // Duplicate (a directory index drawn twice): fall back to a file page
      // named by the page index, which is unique by construction.
      set_file_path(page, dir, p, ".html");
    }
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
