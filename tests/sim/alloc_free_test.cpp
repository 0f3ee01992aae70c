// "Allocation-free" as a counted property: a counting global operator new
// checks that, once warm, the URL-cache miss path touches the heap zero
// times -- LookupRequest::build over corpus URLs, TrafficModel::url_of on
// a published site-table hit or a miss into a recycled buffer, URL-cache
// hits and misses into reused entries, and listed-prefix universe probes
// -- that a warm v3 or v4 re-sync served from the shared caches does too,
// and that a warm engine tick stays near zero allocations per user-tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sb/lookup_request.hpp"
#include "sb/protocol.hpp"
#include "sb/sync_state_cache.hpp"
#include "sb/transport.hpp"
#include "sim/engine.hpp"
#include "sim/prefix_set.hpp"
#include "sim/traffic_model.hpp"
#include "sim/url_cache.hpp"
#include "url/decompose.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Every allocation of this binary goes through here (operator new[] and
// the array deletes forward to these by default). The deletes stay out of
// line: inlined into a container, GCC would see their free() release a
// pointer that came from operator new and call the pair mismatched.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace sbp::sim {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

corpus::CorpusConfig browse_corpus() {
  corpus::CorpusConfig config;
  config.num_hosts = 2000;
  config.seed = 2016;
  config.max_pages = 300;
  return config;
}

/// Corpus page URLs plus hand-written ones that exercise every
/// canonicalization step (escapes, IPs, dot segments, whitespace).
std::vector<std::string> sample_urls() {
  const corpus::WebCorpus corpus(browse_corpus());
  std::vector<std::string> urls = {
      "http://www.google.com/%2E%2E/a/./b/../c?q=%25%32%35#frag",
      "  http://0x7f.1/x//y/z.html\t",
      "HTTP://USER:pw@A.B.C.D.E.F.example.COM:8080/1/2/3/4/5.php?x=y",
      "http://3279880203/blah",
      "",
      "%%%",
  };
  util::Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const corpus::Site site = corpus.site(rng.next_below(corpus.num_hosts()));
    urls.push_back(site.pages[rng.next_below(site.pages.size())].url());
  }
  return urls;
}

TEST(AllocFreeTest, WarmLookupRequestBuildAllocatesNothing) {
  const std::vector<std::string> urls = sample_urls();
  sb::LookupRequest request;
  for (const std::string& url : urls) request.build(url);  // warm

  std::size_t expressions = 0;
  const std::uint64_t before = allocations();
  for (const std::string& url : urls) {
    request.build(url);
    expressions += request.size();
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(expressions, urls.size());

  // Same bytes as the allocating wrappers, also when rebuilt from the
  // request's own URL bytes.
  for (std::size_t i = 0; i < urls.size(); i += 97) {
    request.build(urls[i]);
    EXPECT_EQ(request.expressions(), url::decompose_expressions(urls[i]))
        << urls[i];
    EXPECT_EQ(request.url(), urls[i]);
    sb::LookupRequest fresh;
    fresh.build("x");
    fresh.build(urls[i]);
    fresh.build(fresh.url());
    EXPECT_EQ(fresh.url(), urls[i]);
    EXPECT_EQ(fresh.expressions(), request.expressions()) << urls[i];
  }
  // A view into the request's own URL that decomposes into more bytes
  // than the buffer holds: the buffer grows while the view is read.
  sb::LookupRequest self;
  self.build("http://h/#a.b.c.d.e/1/2/3/4");
  self.build(self.url().substr(10));
  EXPECT_EQ(self.url(), "a.b.c.d.e/1/2/3/4");
  EXPECT_EQ(self.expressions(),
            url::decompose_expressions("a.b.c.d.e/1/2/3/4"));
}

TEST(AllocFreeTest, UrlOfOnPublishedSiteTableHitAllocatesNothing) {
  const TrafficModel model(TrafficConfig{}, browse_corpus());
  SiteTable table(64, 1);
  std::vector<TrafficModel::VisitId> ids;
  for (std::uint64_t site = 0; site < 64; ++site) {
    ids.push_back(site << 32 | 0);
  }
  std::string url;
  for (const auto id : ids) model.url_of(id, table.lane(0), url);  // misses
  table.publish();
  for (const auto id : ids) model.url_of(id, table.lane(0), url);  // warm
  table.publish();

  const std::uint64_t before = allocations();
  for (int round = 0; round < 4; ++round) {
    for (const auto id : ids) model.url_of(id, table.lane(0), url);
    table.publish();
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(table.misses(), ids.size());
  EXPECT_EQ(table.hits(), 5 * ids.size());
}

TEST(AllocFreeTest, WarmRecycledSiteTableMissAllocatesNothing) {
  // 128 sites through a table of 64, round-robin, one publish per request:
  // with no site used twice, second chance evicts the oldest, so every
  // request misses. A miss generates into the lane's spare buffer, which
  // the last publish's victim handed back. The sites are those whose first
  // page has the most common length, so every spare fits every site (a
  // held buffer left more than half empty is shrunk, and then grows
  // again), and neither the miss nor the publish touches the heap.
  const corpus::WebCorpus corpus(browse_corpus());
  std::vector<std::vector<std::uint64_t>> by_length(256);
  corpus::PackedSite packed;
  for (std::uint64_t site = 0; site < corpus.num_hosts(); ++site) {
    corpus.site_into(site, packed, 1);
    by_length[std::min<std::size_t>(packed.bytes.size(), 255)].push_back(site);
  }
  const auto& sites = *std::max_element(
      by_length.begin(), by_length.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  ASSERT_GE(sites.size(), 128u);

  const TrafficModel model(TrafficConfig{}, browse_corpus());
  SiteTable table(64, 1);
  std::vector<TrafficModel::VisitId> ids;
  for (std::size_t i = 0; i < 128; ++i) ids.push_back(sites[i] << 32 | 0);
  std::string url;
  const auto round = [&] {
    for (const auto id : ids) {
      model.url_of(id, table.lane(0), url);
      table.publish();
    }
  };
  round();  // fills the table
  round();  // every miss evicts: the lane holds a spare

  const std::uint64_t before = allocations();
  for (int i = 0; i < 4; ++i) round();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(table.misses(), 6 * ids.size());
  EXPECT_EQ(table.hits(), 0u);
  EXPECT_EQ(table.size(), 64u);
}

TEST(AllocFreeTest, UrlCacheHitsAndMissesIntoReusedEntriesAllocateNothing) {
  const std::vector<std::string> urls = sample_urls();
  constexpr std::size_t kEntries = 64;
  UrlCache cache(kEntries);
  // Round 0 fills every entry; each later round misses kEntries fresh keys,
  // each evicting one key into its reused entry. Entry e always gets
  // urls[e], so every rebuild fits the entry's buffer.
  const auto run_round = [&](std::uint64_t round) {
    for (std::size_t i = 0; i < kEntries; ++i) {
      const std::uint64_t key = round * kEntries + i;
      EXPECT_FALSE(cache.find(key));
      const UrlCache::Ref inserted = cache.insert(key);
      cache.entry(inserted.entry).request.build(urls[inserted.entry]);
      inserted.stamp->hits = static_cast<std::uint32_t>(i);
      const UrlCache::Ref hit = cache.find(key);
      EXPECT_EQ(hit.stamp, inserted.stamp);
      EXPECT_EQ(hit.entry, inserted.entry);
    }
  };
  run_round(0);

  const std::uint64_t before = allocations();
  for (std::uint64_t round = 1; round < 8; ++round) run_round(round);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(cache.size(), kEntries);
  EXPECT_FALSE(cache.find(0));  // evicted long ago
}

TEST(AllocFreeTest, UrlCacheHitsLikeAnExactMap) {
  // The flat table's hit/miss sequence equals an exact map's that drops,
  // on each insert into a full cache, the key whose entry the insert
  // reused -- so an eviction removes exactly one key, and only that key.
  // Every hit returns its own key's stamp (both fields) and entry across
  // grow() and evictions, a key inserted into a reused entry starts
  // unstamped whatever its slot held, and the size never exceeds the
  // bound.
  const auto hits_of = [](std::uint64_t step) {
    return static_cast<std::uint32_t>(step * 0x9E3779B9u) | 1u;
  };
  for (const std::size_t bound : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{100}}) {
    UrlCache cache(bound);
    struct Live {
      std::uint32_t step;
      std::uint32_t entry;
    };
    std::unordered_map<std::uint64_t, Live> reference;
    std::unordered_map<std::uint32_t, std::uint64_t> owner;  // entry -> key
    util::Rng rng(bound + 1);
    std::size_t evictions = 0;
    for (std::uint32_t step = 1; step <= 20000; ++step) {
      const std::uint64_t page = rng.next_below(rng.next_bool(0.5) ? 2 : 9);
      const std::uint64_t key = rng.next_below(300) << 32 | page;
      const UrlCache::Ref found = cache.find(key);
      const auto it = reference.find(key);
      ASSERT_EQ(static_cast<bool>(found), it != reference.end())
          << "bound " << bound << " step " << step;
      if (found) {
        ASSERT_EQ(found.stamp->version, it->second.step) << "step " << step;
        ASSERT_EQ(found.stamp->hits, hits_of(it->second.step))
            << "step " << step;
        ASSERT_EQ(found.entry, it->second.entry) << "step " << step;
        continue;
      }
      const UrlCache::Ref inserted = cache.insert(key);
      ASSERT_EQ(inserted.stamp->version, 0u) << "step " << step;
      ASSERT_EQ(inserted.stamp->hits, 0u) << "step " << step;
      *inserted.stamp = {hits_of(step), step};
      if (const auto previous = owner.find(inserted.entry);
          previous != owner.end()) {
        ASSERT_NE(bound, 0u) << "an unbounded cache reused an entry";
        ASSERT_EQ(reference.size(), bound) << "evicted below the bound";
        reference.erase(previous->second);
        ++evictions;
      }
      owner[inserted.entry] = key;
      reference.emplace(key, Live{step, inserted.entry});
      ASSERT_EQ(cache.size(), reference.size()) << "step " << step;
      if (bound > 0) {
        ASSERT_LE(cache.size(), bound) << "step " << step;
      }
    }
    EXPECT_EQ(evictions > 0, bound > 0) << "bound " << bound;
  }
}

TEST(AllocFreeTest, UrlCacheKeepsAKeyHitBetweenEveryTwoInserts) {
  // Second chance: the hand clears a referenced slot's bit and passes it
  // over, so a key hit between every two inserts is never the victim,
  // however many fresh keys stream through the full cache. A key never
  // hit again is evicted within one sweep.
  for (const std::size_t bound : {std::size_t{2}, std::size_t{7},
                                  std::size_t{64}}) {
    UrlCache cache(bound);
    constexpr std::uint64_t kHot = 1ULL << 40;
    ASSERT_FALSE(cache.find(kHot));
    const std::uint32_t hot_entry = cache.insert(kHot).entry;
    for (std::uint64_t key = 1; key <= 50 * bound; ++key) {
      const UrlCache::Ref hot = cache.find(kHot);
      ASSERT_TRUE(hot) << "bound " << bound << " insert " << key;
      ASSERT_EQ(hot.entry, hot_entry);
      ASSERT_FALSE(cache.find(key));
      ASSERT_NE(cache.insert(key).entry, hot_entry);
      ASSERT_LE(cache.size(), bound);
    }
    EXPECT_FALSE(cache.find(1)) << "bound " << bound;
  }
}

TEST(AllocFreeTest, PrefixSetMatchesAnExactSetWithoutAllocating) {
  // The engine's listed-prefix universe: membership equals a reference
  // set's across every growth, the prefix 0 included, and a probe never
  // touches the heap.
  PrefixSet set;
  std::unordered_set<crypto::Prefix32> reference;
  util::Rng rng(7);
  const auto draw = [&] {
    // Small values collide often (and include 0); the rest are hash bits.
    return static_cast<crypto::Prefix32>(
        rng.next_bool(0.2) ? rng.next_below(64) : rng.next());
  };
  for (int step = 0; step < 20000; ++step) {
    const crypto::Prefix32 prefix = draw();
    ASSERT_EQ(set.insert(prefix), reference.insert(prefix).second)
        << "step " << step;
  }
  const std::uint64_t before = allocations();
  for (int step = 0; step < 20000; ++step) {
    const crypto::Prefix32 prefix = draw();
    ASSERT_EQ(set.has(prefix), reference.count(prefix) > 0)
        << "step " << step;
  }
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(AllocFreeTest, WarmResyncsWithBothCachesHittingAllocateNothing) {
  // Per generation, a leader re-syncs first (the server encodes, the cache
  // builds), both caches publish as at a tick barrier, and the followers
  // -- same state, same request -- then re-sync on an engine worker's
  // path: the server's published encoding, the transport's decode memo,
  // the sync-state cache's published slot.
  constexpr const char* kList = "goog-malware-shavar";
  sb::Server server;
  for (int i = 0; i < 400; ++i) {
    server.add_expression(kList, "site" + std::to_string(i) + ".example/");
  }
  server.seal_chunk(kList);
  sb::SimClock clock;
  sb::InProcessTransport transport(server, clock, /*round_trip_ticks=*/0);
  auto cache = std::make_shared<sb::SyncStateCache>();
  std::vector<std::unique_ptr<sb::ProtocolClient>> leaders;
  std::vector<std::unique_ptr<sb::ProtocolClient>> followers;
  for (const auto protocol :
       {sb::ProtocolVersion::kV3Chunked, sb::ProtocolVersion::kV4Sliced}) {
    sb::ClientConfig config;
    config.protocol = protocol;
    config.sync_states = cache;
    leaders.push_back(sb::make_protocol_client(transport, config));
    leaders.back()->subscribe(kList);
    for (int i = 0; i < 8; ++i) {
      followers.push_back(sb::make_protocol_client(transport, config));
      followers.back()->subscribe(kList);
    }
  }

  std::uint64_t follower_allocations = 0;
  for (int round = 0; round < 6; ++round) {
    if (round > 0) {
      server.remove_expression(kList,
                               "site" + std::to_string(round) + ".example/");
      for (int i = 0; i < 5; ++i) {
        server.add_expression(
            kList, "new" + std::to_string(round * 10 + i) + ".example/");
      }
      server.seal_chunk(kList);
    }
    for (auto& leader : leaders) ASSERT_TRUE(leader->update());
    if (round == 0) {
      // The initial syncs build from nothing: those slots are pruned at
      // the barrier, so the whole fleet syncs before it, as in the engine.
      for (auto& follower : followers) ASSERT_TRUE(follower->update());
    }
    cache->prune();
    server.publish_update_cache();
    if (round == 0) continue;

    sb::QueryLogBuffer buffer;
    const std::uint64_t hits = server.update_encode_cache_hits();
    const std::uint64_t builds = cache->builds();
    const std::uint64_t before = allocations();
    {
      const sb::Server::ScopedLogShard shard(buffer);
      for (auto& follower : followers) ASSERT_TRUE(follower->update());
    }
    // Round 1 warms the per-thread request and the transport's request
    // frame buffer.
    if (round >= 2) follower_allocations += allocations() - before;
    server.drain_log_buffer(buffer);
    EXPECT_EQ(server.update_encode_cache_hits(), hits + followers.size());
    EXPECT_EQ(cache->builds(), builds);
  }
  // Nothing remains: the request is rebuilt in reused buffers, the
  // response frame and its decoded value are shared by pointer, and the
  // next state is the published one.
  EXPECT_EQ(follower_allocations, 0u);
}

TEST(AllocFreeTest, WarmEngineTicksStayNearZeroAllocations) {
  // No listed page or site: every lookup ends in the prefilter, so a warm
  // tick is planning, URL-cache work and misses into reused entries.
  SimConfig config;
  config.num_users = 64;
  config.num_shards = 2;
  config.num_threads = 1;
  config.ticks = 1200;
  config.corpus = browse_corpus();
  config.corpus.num_hosts = 64;
  config.site_cache_entries = 64;
  // Small enough that second-chance eviction still misses > 1000 times in
  // the measured ticks.
  config.url_cache_entries = 128;
  config.blacklist.page_fraction = 0.0;
  config.blacklist.site_fraction = 0.0;
  config.traffic.session_start_probability = 0.5;
  Engine engine(config);
  // Warm: every site cached, entry buffers grown to the URLs they see.
  for (int tick = 0; tick < 1000; ++tick) engine.step();

  const std::uint64_t misses = engine.metrics().url_cache_misses;
  const std::uint64_t before = allocations();
  for (int tick = 0; tick < 200; ++tick) engine.step();
  const double per_user_tick =
      static_cast<double>(allocations() - before) / (64.0 * 200.0);
  EXPECT_GT(engine.metrics().url_cache_misses, misses + 1000);
  EXPECT_LT(per_user_tick, 0.01);
}

}  // namespace
}  // namespace sbp::sim
