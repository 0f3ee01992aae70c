#include "corpus/web_corpus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string_view>

#include "url/canonicalize.hpp"

namespace sbp::corpus {
namespace {

TEST(WebCorpusTest, DeterministicAcrossInstances) {
  const CorpusConfig config = CorpusConfig::random_like(50, 42);
  const WebCorpus a(config), b(config);
  for (std::size_t i = 0; i < 50; ++i) {
    const Site sa = a.site(i);
    const Site sb = b.site(i);
    ASSERT_EQ(sa.domain, sb.domain);
    ASSERT_EQ(sa.pages.size(), sb.pages.size());
    for (std::size_t p = 0; p < sa.pages.size(); ++p) {
      EXPECT_EQ(sa.pages[p].expression(), sb.pages[p].expression());
    }
  }
}

TEST(WebCorpusTest, SeedChangesContent) {
  const WebCorpus a(CorpusConfig::random_like(20, 1));
  const WebCorpus b(CorpusConfig::random_like(20, 2));
  std::size_t differing = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    if (a.site(i).pages.size() != b.site(i).pages.size()) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(WebCorpusTest, PageCountMatchesSite) {
  const WebCorpus corpus(CorpusConfig::random_like(100, 7));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(corpus.site(i).pages.size(), corpus.site_page_count(i)) << i;
  }
}

TEST(WebCorpusTest, DomainMatchesSite) {
  const WebCorpus corpus(CorpusConfig::alexa_like(50, 9));
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(corpus.site(i).domain, corpus.site_domain(i));
  }
}

TEST(WebCorpusTest, RandomPresetSinglePageFraction) {
  // Paper Section 6.2: ~61% of random hosts are single-page.
  const WebCorpus corpus(CorpusConfig::random_like(2000, 11));
  std::size_t single = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    if (corpus.site_page_count(i) == 1) ++single;
  }
  const double fraction = single / 2000.0;
  EXPECT_NEAR(fraction, 0.61, 0.04);
}

TEST(WebCorpusTest, AlexaHostsHostMorePages) {
  const WebCorpus alexa(CorpusConfig::alexa_like(500, 3));
  const WebCorpus random(CorpusConfig::random_like(500, 3));
  std::uint64_t alexa_pages = 0, random_pages = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    alexa_pages += alexa.site_page_count(i);
    random_pages += random.site_page_count(i);
  }
  EXPECT_GT(alexa_pages, random_pages);
}

TEST(WebCorpusTest, PagesAreAlreadyCanonical) {
  // The generator promises canonical output; verify against the real
  // canonicalizer.
  const WebCorpus corpus(CorpusConfig::alexa_like(30, 5));
  std::size_t checked = 0;
  for (std::size_t i = 0; i < 30 && checked < 500; ++i) {
    const Site site = corpus.site(i);
    for (const Page& page : site.pages) {
      const auto canonical = url::canonicalize(page.url());
      ASSERT_TRUE(canonical.has_value()) << page.url();
      EXPECT_EQ(canonical->expression(), page.expression()) << page.url();
      if (++checked >= 500) break;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(WebCorpusTest, PagesStayOnTheirSite) {
  const WebCorpus corpus(CorpusConfig::random_like(40, 13));
  for (std::size_t i = 0; i < 40; ++i) {
    const Site site = corpus.site(i);
    for (const Page& page : site.pages) {
      // host == domain or subdomain.domain
      const bool on_site =
          page.host == site.domain ||
          (page.host.size() > site.domain.size() &&
           page.host.compare(page.host.size() - site.domain.size(),
                             site.domain.size(), site.domain) == 0 &&
           page.host[page.host.size() - site.domain.size() - 1] == '.');
      EXPECT_TRUE(on_site) << page.host << " vs " << site.domain;
    }
  }
}

TEST(WebCorpusTest, MaxPagesRespected) {
  CorpusConfig config = CorpusConfig::alexa_like(300, 21);
  config.max_pages = 50;
  const WebCorpus corpus(config);
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_LE(corpus.site_page_count(i), 50u);
  }
}

/// FNV-1a-64 over every generated byte of sites [0, n): per site the
/// domain, per page host, path and query (each string's bytes then 0xff),
/// then has_query xored in.
std::uint64_t corpus_hash(const CorpusConfig& config, std::size_t n,
                          std::uint64_t* pages) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto fold = [&hash](const std::string& s) {
    for (const unsigned char c : s) {
      hash ^= c;
      hash *= kPrime;
    }
    hash ^= 0xff;
    hash *= kPrime;
  };
  const WebCorpus corpus(config);
  *pages = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Site site = corpus.site(i);
    fold(site.domain);
    for (const Page& page : site.pages) {
      fold(page.host);
      fold(page.path);
      fold(page.query);
      hash ^= page.has_query ? 1 : 0;
      ++*pages;
    }
  }
  return hash;
}

TEST(WebCorpusTest, GeneratedBytesArePinned) {
  // The corpus feeds every golden fingerprint: a generator change must
  // reproduce it byte for byte. Values recorded from the reference
  // generator (at n = 20000 sites the same configs hash to
  // f8e1feb1c4445b6c, 1afa487379e39c91 and 0884b42fac478fd4).
  CorpusConfig browse;
  browse.num_hosts = 200000;
  browse.seed = 2016;
  browse.max_pages = 300;
  CorpusConfig alexa = CorpusConfig::alexa_like(50000, 7);
  alexa.max_pages = 30000;
  CorpusConfig random = CorpusConfig::random_like(50000, 9);
  random.max_pages = 30000;

  std::uint64_t pages = 0;
  EXPECT_EQ(corpus_hash(browse, 4000, &pages), 0x38737304868c8e5dULL);
  EXPECT_EQ(pages, 106484u);
  EXPECT_EQ(corpus_hash(alexa, 400, &pages), 0xe2efd1073308e4ceULL);
  EXPECT_EQ(pages, 478595u);
  EXPECT_EQ(corpus_hash(random, 2000, &pages), 0x54ea5b0670762df6ULL);
  EXPECT_EQ(pages, 538959u);
}

TEST(WebCorpusTest, PrefixesAreTheWholeSitesFirstPages) {
  // The browse-static benchmark web: sites of 1 to 300 pages.
  CorpusConfig config;
  config.num_hosts = 200000;
  config.seed = 2016;
  config.max_pages = 300;
  const WebCorpus corpus(config);
  PackedSite whole;
  PackedSite prefix;
  std::size_t renaming_sites = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    if (corpus.site_into(i, whole) > 0) ++renaming_sites;
    const std::uint64_t n = whole.size();
    ASSERT_EQ(n, corpus.site_page_count(i)) << "site " << i;
    for (const std::uint64_t limit :
         {std::uint64_t{1}, std::uint64_t{2}, n / 2, n - 1, n, n + 5}) {
      corpus.site_into(i, prefix, limit);
      const std::uint64_t pages = std::min(limit, n);
      ASSERT_EQ(prefix.size(), pages) << "site " << i << " limit " << limit;
      const std::size_t bytes = pages == 0 ? 0 : whole.ends[pages - 1];
      EXPECT_TRUE(std::equal(prefix.ends.begin(), prefix.ends.end(),
                             whole.ends.begin()))
          << "site " << i << " limit " << limit;
      EXPECT_EQ(prefix.bytes, std::string_view(whole.bytes).substr(0, bytes))
          << "site " << i << " limit " << limit;
    }
  }
  // Some covered site repeats a directory-index page, so the prefixes
  // exercise the renaming of duplicates too.
  EXPECT_GT(renaming_sites, 0u);
}

TEST(WebCorpusTest, ForEachSiteVisitsAll) {
  const WebCorpus corpus(CorpusConfig::random_like(25, 17));
  std::size_t visits = 0;
  std::set<std::string> domains;
  corpus.for_each_site([&](const Site& site) {
    ++visits;
    domains.insert(site.domain);
  });
  EXPECT_EQ(visits, 25u);
  EXPECT_EQ(domains.size(), 25u);  // unique domains
}

}  // namespace
}  // namespace sbp::corpus
