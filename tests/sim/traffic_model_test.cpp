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
  const TrafficModel model(browse_traffic(), browse_corpus());
  SiteTable table(256, 1);
  const corpus::WebCorpus reference(browse_corpus());
  const util::PowerLawSampler ranks(1.5, 1, 200000);
  std::unordered_map<std::size_t, corpus::Site> head;  // test-side memo

  util::Rng rng(77);
  util::Rng twin(77);
  std::string url;
  for (int draw = 0; draw < 100000; ++draw) {
    model.url_of(model.sample_page(rng), table.lane(0), url);
    if (draw % 16 == 15) table.publish();

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
  EXPECT_GT(table.hits(), 0u);
  EXPECT_GT(table.misses(), 0u);
}

TEST(TrafficModelTest, LargePageCountsAreDrawnExactly) {
  // Counts of 65,535 or more do not fit the 16-bit page-count memo, so
  // those sites draw their count again on every visit.
  corpus::CorpusConfig config;
  config.num_hosts = 64;
  config.seed = 7;
  config.alpha = 1.05;
  config.max_pages = std::uint64_t{1} << 22;
  const TrafficModel model(browse_traffic(), config);
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
  const TrafficModel shared(browse_traffic(), browse_corpus());
  std::vector<TrafficModel::VisitId> racing[2];
  std::thread other([&] { racing[1] = draw(shared, 2); });
  racing[0] = draw(shared, 1);
  other.join();

  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const TrafficModel serial(browse_traffic(), browse_corpus());
    EXPECT_EQ(racing[seed - 1], draw(serial, seed)) << "seed " << seed;
  }
}

TEST(TrafficModelTest, SiteTableNeverDecides) {
  // Three lanes take turns over seeded ids and the table publishes every
  // few draws: each URL equals the page site_into generates directly, at
  // every capacity, and the table never holds more than its capacity.
  const TrafficModel model(browse_traffic(), browse_corpus());
  const corpus::WebCorpus reference(browse_corpus());
  corpus::PackedSite direct;
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    SiteTable table(capacity, 3);
    util::Rng rng(5);
    std::string url;
    for (int draw = 0; draw < 20000; ++draw) {
      const TrafficModel::VisitId id = model.sample_page(rng);
      model.url_of(id, table.lane(draw % 3), url);
      const std::uint64_t page = id & 0xFFFFFFFFu;
      reference.site_into(id >> 32, direct, page + 1);
      ASSERT_EQ(url, "http://" + std::string(direct.expression(page)))
          << "capacity " << capacity << " draw " << draw;
      if (draw % 5 == 4) {
        table.publish();
        ASSERT_LE(table.size(), capacity) << "draw " << draw;
      }
    }
    EXPECT_EQ(table.hits() + table.misses(), 20000u) << capacity;
    EXPECT_GT(table.hits(), 0u) << capacity;
    // Only the largest table never fills.
    EXPECT_EQ(table.size() < capacity, capacity == 4096) << capacity;
  }
}

TEST(TrafficModelTest, SiteTableKeepsASiteTouchedEveryTick) {
  // Second chance: a publish sets the referenced bit of every site a lane
  // used before it merges any new site, so a site used every tick stays
  // while each publish brings fewer new sites than the capacity. A site
  // never used again leaves within one sweep of the hand.
  const TrafficModel model(browse_traffic(), browse_corpus());
  const auto first_page = [](std::uint64_t site) { return site << 32; };
  constexpr std::uint64_t kHot = 99999;
  for (const std::size_t capacity :
       {std::size_t{3}, std::size_t{7}, std::size_t{64}}) {
    SiteTable table(capacity, 2);
    std::string url;
    std::uint64_t fresh = 0;
    for (int tick = 0; tick < 50 * static_cast<int>(capacity); ++tick) {
      const std::uint64_t misses = table.misses();
      model.url_of(first_page(kHot), table.lane(1), url);
      model.url_of(first_page(++fresh), table.lane(0), url);
      model.url_of(first_page(++fresh), table.lane(1), url);
      table.publish();
      ASSERT_EQ(table.misses() - misses, tick == 0 ? 3u : 2u)
          << "capacity " << capacity << " tick " << tick;
      ASSERT_LE(table.size(), capacity);
    }
    const std::uint64_t misses = table.misses();
    model.url_of(first_page(1), table.lane(0), url);
    table.publish();
    EXPECT_EQ(table.misses(), misses + 1) << "capacity " << capacity;
  }
}

TEST(TrafficModelTest, SiteTableKeepsPrefixesAndExtendsToWholeSites) {
  const TrafficModel model(browse_traffic(), browse_corpus());
  SiteTable table(16, 2);
  const corpus::WebCorpus reference(browse_corpus());
  // Two sites of at least 10 pages.
  std::vector<std::size_t> sites;
  for (std::size_t s = 0; sites.size() < 2; ++s) {
    if (reference.site_page_count(s) >= 10) sites.push_back(s);
  }
  const std::size_t a = sites[0], b = sites[1];
  const auto pages_of = [&](std::size_t site) {
    return reference.site_page_count(site);
  };

  // A hit serves a held page (this lane's pending copy or the published
  // one); a prefix miss generates the site through the requested page; a
  // whole miss (a request at or past the held prefix) generates the whole
  // site. A lane sees no other lane's pending sites, and a publish keeps
  // the longer of two copies.
  enum class Kind { kHit, kPrefix, kWhole, kPublish };
  struct Step {
    std::size_t lane;
    std::size_t site;
    std::uint64_t page;
    Kind kind;
  };
  const std::vector<Step> script = {
      {0, a, 3, Kind::kPrefix},               // lane 0: a[0..3]
      {0, a, 0, Kind::kHit},
      {0, a, 4, Kind::kWhole},                // lane 0: a
      {1, a, 2, Kind::kPrefix},               // lane 1: a[0..2]
      {1, b, 1, Kind::kPrefix},               // lane 1: a[0..2] b[0..1]
      {0, 0, 0, Kind::kPublish},              // a b[0..1]
      {1, a, pages_of(a) - 1, Kind::kHit},
      {0, b, 1, Kind::kHit},
      {0, b, 5, Kind::kWhole},                // lane 0: b
      {1, b, 5, Kind::kWhole},                // lane 1: b
      {0, 0, 0, Kind::kPublish},              // a b
      {1, b, pages_of(b) - 1, Kind::kHit},
      {0, 0, 0, Kind::kPublish},
  };
  std::uint64_t hits = 0, misses = 0, generated = 0;
  std::string url;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Step& step = script[i];
    switch (step.kind) {
      case Kind::kHit: ++hits; break;
      case Kind::kPrefix: ++misses; generated += step.page + 1; break;
      case Kind::kWhole: ++misses; generated += pages_of(step.site); break;
      case Kind::kPublish:
        table.publish();
        EXPECT_EQ(table.hits(), hits) << "step " << i;
        EXPECT_EQ(table.misses(), misses) << "step " << i;
        EXPECT_EQ(table.pages_generated(), generated) << "step " << i;
        EXPECT_EQ(table.size(), 2u) << "step " << i;
        continue;
    }
    model.url_of(static_cast<TrafficModel::VisitId>(step.site) << 32 |
                     step.page,
                 table.lane(step.lane), url);
    EXPECT_EQ(url, reference.site(step.site).pages[step.page].url())
        << "step " << i;
  }
}

TEST(TrafficModelTest, OneIdPerTargetUrl) {
  const corpus::WebCorpus reference(browse_corpus());
  const std::string corpus_url = reference.site(3).pages[1].url();
  TrafficConfig traffic = browse_traffic();
  traffic.target_urls = {"http://victim.example/", "http://other.example/",
                         "http://victim.example/", corpus_url};
  const TrafficModel model(traffic, browse_corpus());

  EXPECT_EQ(model.target_visit(0), TrafficModel::kTargetVisit | 0);
  EXPECT_EQ(model.target_visit(1), TrafficModel::kTargetVisit | 1);
  EXPECT_EQ(model.target_visit(2), model.target_visit(0));
  EXPECT_EQ(model.target_visit(3), TrafficModel::VisitId{3} << 32 | 1);

  SiteTable table(16, 1);
  std::string url;
  for (std::size_t i = 0; i < traffic.target_urls.size(); ++i) {
    model.url_of(model.target_visit(i), table.lane(0), url);
    EXPECT_EQ(url, traffic.target_urls[i]) << i;
  }
  table.publish();
  // Only the corpus-page target went through the site table.
  EXPECT_EQ(table.hits() + table.misses(), 1u);
}

TEST(TrafficModelTest, RejectsCorpusBeyondIdLayout) {
  corpus::CorpusConfig config = browse_corpus();
  config.num_hosts = (std::size_t{1} << 31) + 1;
  EXPECT_THROW(TrafficModel(browse_traffic(), config),
               std::invalid_argument);
  config = browse_corpus();
  config.max_pages = (std::uint64_t{1} << 32) + 1;
  EXPECT_THROW(TrafficModel(browse_traffic(), config),
               std::invalid_argument);
}

}  // namespace
}  // namespace sbp::sim
