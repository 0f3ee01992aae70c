#include "sim/traffic_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/power_law.hpp"

namespace sbp::sim {
namespace {

/// The browse-static benchmark workload's web and popularity law.
corpus::CorpusConfig browse_corpus() {
  corpus::CorpusConfig config;
  config.num_hosts = 200000;
  config.seed = 2016;
  config.max_pages = 300;
  return config;
}

TrafficConfig browse_traffic() {
  TrafficConfig traffic;
  traffic.site_popularity_alpha = 1.5;
  return traffic;
}

TEST(TrafficModelTest, IdDrawEqualsStringDraw) {
  // The reference draws a rank, generates the site and picks a page from
  // its pages.size() -- the string-era draw -- on a twin stream.
  const TrafficModel model(browse_traffic(), browse_corpus(), 256);
  TrafficModel::SiteCache cache = model.make_cache();
  const corpus::WebCorpus reference(browse_corpus());
  const util::PowerLawSampler ranks(1.5, 1, 200000);
  std::unordered_map<std::size_t, corpus::Site> head;  // test-side memo

  util::Rng rng(77);
  util::Rng twin(77);
  std::string url;
  for (int draw = 0; draw < 100000; ++draw) {
    model.url_of(model.sample_page(rng), cache, url);

    const std::size_t s = static_cast<std::size_t>(ranks.sample(twin) - 1);
    const corpus::Site* site = nullptr;
    corpus::Site tail;
    if (s < 4096) {
      auto it = head.find(s);
      if (it == head.end()) it = head.emplace(s, reference.site(s)).first;
      site = &it->second;
    } else {
      tail = reference.site(s);
      site = &tail;
    }
    const std::string expected =
        "http://" +
        site->pages[twin.next_below(site->pages.size())].expression();
    ASSERT_EQ(url, expected) << "draw " << draw;
  }
  EXPECT_EQ(rng.next(), twin.next()) << "streams diverged";
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(TrafficModelTest, LargePageCountsAreDrawnExactly) {
  // Counts of 65,535 or more do not fit the 16-bit page-count memo, so
  // those sites draw their count again on every visit.
  corpus::CorpusConfig config;
  config.num_hosts = 64;
  config.seed = 7;
  config.alpha = 1.05;
  config.max_pages = std::uint64_t{1} << 22;
  const TrafficModel model(browse_traffic(), config, 16);
  const corpus::WebCorpus reference(config);
  const util::PowerLawSampler ranks(1.5, 1, config.num_hosts);

  util::Rng rng(3);
  util::Rng twin(3);
  int large = 0;
  for (int draw = 0; draw < 20000; ++draw) {
    const TrafficModel::VisitId id = model.sample_page(rng);
    const std::size_t s = static_cast<std::size_t>(ranks.sample(twin) - 1);
    const std::uint64_t count = reference.site_page_count(s);
    if (count >= 0xFFFF) ++large;
    ASSERT_EQ(id, static_cast<TrafficModel::VisitId>(s) << 32 |
                      twin.next_below(count))
        << "draw " << draw;
  }
  EXPECT_GT(large, 1000) << "too few draws took the recompute path";
  EXPECT_EQ(rng.next(), twin.next()) << "streams diverged";
}

TEST(TrafficModelTest, RacingPageCountFillsDrawTheSerialIds) {
  // Two threads fill one model's page-count memo at once; each must draw
  // exactly what a fresh model draws serially from the same stream.
  constexpr int kDraws = 50000;
  const auto draw = [](const TrafficModel& model, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<TrafficModel::VisitId> ids(kDraws);
    for (auto& id : ids) id = model.sample_page(rng);
    return ids;
  };
  const TrafficModel shared(browse_traffic(), browse_corpus(), 16);
  std::vector<TrafficModel::VisitId> racing[2];
  std::thread other([&] { racing[1] = draw(shared, 2); });
  racing[0] = draw(shared, 1);
  other.join();

  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const TrafficModel serial(browse_traffic(), browse_corpus(), 16);
    EXPECT_EQ(racing[seed - 1], draw(serial, seed)) << "seed " << seed;
  }
}

TEST(TrafficModelTest, SiteCacheNeverDecides) {
  const TrafficModel model(browse_traffic(), browse_corpus(), 256);
  TrafficModel::SiteCache tiny(1);
  TrafficModel::SiteCache large(4096);
  util::Rng rng(5);
  std::string a, b;
  for (int draw = 0; draw < 20000; ++draw) {
    const TrafficModel::VisitId id = model.sample_page(rng);
    model.url_of(id, tiny, a);
    model.url_of(id, large, b);
    ASSERT_EQ(a, b) << "draw " << draw;
  }
  EXPECT_EQ(tiny.hits() + tiny.misses(), 20000u);
  EXPECT_EQ(large.hits() + large.misses(), 20000u);
  EXPECT_GT(tiny.misses(), large.misses());
}

TEST(TrafficModelTest, SiteCacheEvictsLeastRecentlyUsed) {
  const TrafficModel model(browse_traffic(), browse_corpus(), 2);
  TrafficModel::SiteCache cache = model.make_cache();
  const corpus::WebCorpus reference(browse_corpus());
  struct Step {
    std::size_t site;
    std::uint64_t hits;  ///< cumulative after the access
    std::uint64_t misses;
  };
  // Capacity 2; the comment is the recency order after each access.
  const std::vector<Step> script = {
      {0, 0, 1},  // miss: 0
      {1, 0, 2},  // miss: 1 0
      {0, 1, 2},  // hit:  0 1
      {2, 1, 3},  // miss, evicts 1: 2 0
      {0, 2, 3},  // hit:  0 2
      {1, 2, 4},  // miss, evicts 2: 1 0
      {2, 2, 5},  // miss, evicts 0: 2 1
      {1, 3, 5},  // hit:  1 2
      {0, 3, 6},  // miss, evicts 2: 0 1
      {1, 4, 6},  // hit:  1 0
  };
  std::string url;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Step& step = script[i];
    model.url_of(static_cast<TrafficModel::VisitId>(step.site) << 32, cache,
                 url);
    EXPECT_EQ(url, reference.site(step.site).pages[0].url()) << "step " << i;
    EXPECT_EQ(cache.hits(), step.hits) << "step " << i;
    EXPECT_EQ(cache.misses(), step.misses) << "step " << i;
  }
}

TEST(TrafficModelTest, SiteCacheKeepsPrefixesAndExtendsToWholeSites) {
  const TrafficModel model(browse_traffic(), browse_corpus(), 2);
  TrafficModel::SiteCache cache = model.make_cache();
  const corpus::WebCorpus reference(browse_corpus());
  // Three sites of at least 10 pages.
  std::vector<std::size_t> sites;
  for (std::size_t s = 0; sites.size() < 3; ++s) {
    if (reference.site_page_count(s) >= 10) sites.push_back(s);
  }
  const std::size_t a = sites[0], b = sites[1], c = sites[2];
  const auto pages_of = [&](std::size_t site) {
    return reference.site_page_count(site);
  };

  // A hit serves a cached page; a prefix miss generates the site through
  // the requested page; a whole miss (a request at or past the cached
  // prefix) generates the whole site.
  enum class Kind { kHit, kPrefix, kWhole };
  struct Step {
    std::size_t site;
    std::uint64_t page;
    Kind kind;
  };
  // Capacity 2; the comment is the cache after each access.
  const std::vector<Step> script = {
      {a, 3, Kind::kPrefix},               // a[0..3]
      {a, 0, Kind::kHit},                  // a[0..3]
      {a, 3, Kind::kHit},                  // a[0..3]
      {a, 4, Kind::kWhole},                // a
      {a, pages_of(a) - 1, Kind::kHit},    // a
      {b, 1, Kind::kPrefix},               // b[0..1] a
      {b, 5, Kind::kWhole},                // b a
      {c, 0, Kind::kPrefix},               // c[0] b; evicts a
      {a, 2, Kind::kPrefix},               // a[0..2] c[0]; evicts b
      {c, 0, Kind::kHit},                  // c[0] a[0..2]
      {b, 1, Kind::kPrefix},               // b[0..1] c[0]; evicts a
      {c, 1, Kind::kWhole},                // c b[0..1]
      {b, pages_of(b) - 1, Kind::kWhole},  // b c
      {c, pages_of(c) - 1, Kind::kHit},    // c b
  };
  std::uint64_t hits = 0, misses = 0, generated = 0;
  std::string url;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Step& step = script[i];
    switch (step.kind) {
      case Kind::kHit: ++hits; break;
      case Kind::kPrefix: ++misses; generated += step.page + 1; break;
      case Kind::kWhole: ++misses; generated += pages_of(step.site); break;
    }
    model.url_of(static_cast<TrafficModel::VisitId>(step.site) << 32 |
                     step.page,
                 cache, url);
    EXPECT_EQ(url, reference.site(step.site).pages[step.page].url())
        << "step " << i;
    EXPECT_EQ(cache.hits(), hits) << "step " << i;
    EXPECT_EQ(cache.misses(), misses) << "step " << i;
    EXPECT_EQ(cache.pages_generated(), generated) << "step " << i;
  }
}

TEST(TrafficModelTest, OneIdPerTargetUrl) {
  const corpus::WebCorpus reference(browse_corpus());
  const std::string corpus_url = reference.site(3).pages[1].url();
  TrafficConfig traffic = browse_traffic();
  traffic.target_urls = {"http://victim.example/", "http://other.example/",
                         "http://victim.example/", corpus_url};
  const TrafficModel model(traffic, browse_corpus(), 16);

  EXPECT_EQ(model.target_visit(0), TrafficModel::kTargetVisit | 0);
  EXPECT_EQ(model.target_visit(1), TrafficModel::kTargetVisit | 1);
  EXPECT_EQ(model.target_visit(2), model.target_visit(0));
  EXPECT_EQ(model.target_visit(3), TrafficModel::VisitId{3} << 32 | 1);

  TrafficModel::SiteCache cache = model.make_cache();
  std::string url;
  for (std::size_t i = 0; i < traffic.target_urls.size(); ++i) {
    model.url_of(model.target_visit(i), cache, url);
    EXPECT_EQ(url, traffic.target_urls[i]) << i;
  }
  // Only the corpus-page target went through the site cache.
  EXPECT_EQ(cache.hits() + cache.misses(), 1u);
}

TEST(TrafficModelTest, RejectsCorpusBeyondIdLayout) {
  corpus::CorpusConfig config = browse_corpus();
  config.num_hosts = (std::size_t{1} << 31) + 1;
  EXPECT_THROW(TrafficModel(browse_traffic(), config, 16),
               std::invalid_argument);
  config = browse_corpus();
  config.max_pages = (std::uint64_t{1} << 32) + 1;
  EXPECT_THROW(TrafficModel(browse_traffic(), config, 16),
               std::invalid_argument);
}

}  // namespace
}  // namespace sbp::sim
