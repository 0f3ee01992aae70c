#include "sim/traffic_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
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
