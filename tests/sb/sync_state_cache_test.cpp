// Shared immutable client sync states (sb/sync_state_cache.hpp). A cache
// hit must be indistinguishable from a fresh private build, a corrupt or
// mis-checksummed v4 slice must desync only the client that received it,
// re-sent v3 chunks stay idempotent, a client with no cache holds the same
// states as a cached one and pins nothing else, racing clients share one
// build (also across a publish),
// equal frames in separate buffers share states exactly as one shared
// frame does, and a long churned population keeps the cache bounded by its
// live states.
#include "sb/sync_state_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/digest.hpp"
#include "sb/client.hpp"
#include "sb/protocol_v4.hpp"
#include "sb/wire/frames.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace sbp::sb {
namespace {

constexpr const char* kList = "list";

/// An InProcessTransport whose next v4 response a test may rewrite --
/// the corrupt slice reaches exactly the clients bound to this transport.
class TamperingTransport final : public Transport {
 public:
  TamperingTransport(Server& server, SimClock& clock)
      : Transport(clock), inner_(server, clock, /*round_trip_ticks=*/0) {}

  /// Applied to the next v4 update response only.
  std::function<void(V4UpdateResponse&)> tamper_next_v4;

  std::optional<FullHashResponse> get_full_hashes_or_error(
      const std::vector<crypto::Prefix32>& prefixes, Cookie cookie) override {
    return inner_.get_full_hashes_or_error(prefixes, cookie);
  }
  std::optional<UpdateResponse> fetch_update_or_error(
      const UpdateRequest& request) override {
    return inner_.fetch_update_or_error(request);
  }
  std::optional<V4UpdateResponse> fetch_v4_update_or_error(
      const V4UpdateRequest& request) override {
    auto response = inner_.fetch_v4_update_or_error(request);
    if (response && tamper_next_v4) {
      tamper_next_v4(*response);
      tamper_next_v4 = nullptr;
    }
    return response;
  }
  std::optional<bool> lookup_v1_or_error(std::string_view url,
                                         Cookie cookie) override {
    return inner_.lookup_v1_or_error(url, cookie);
  }

 private:
  InProcessTransport inner_;
};

/// The socket transport's case in one address space: each response frame
/// arrives in a buffer of its own, so equal frames never share a pointer.
class CopyingTransport final : public FrameTransport {
 public:
  CopyingTransport(Server& server, SimClock& clock)
      : FrameTransport(clock), server_(server) {}

 private:
  bool refuse(const RequestChannel&) override { return false; }
  ResponseFrame exchange(
      const std::vector<std::uint8_t>& request_frame) override {
    const ResponseFrame frame = server_.serve_frame(request_frame, 0);
    if (frame == nullptr) return nullptr;
    return std::make_shared<const std::vector<std::uint8_t>>(*frame);
  }

  Server& server_;
};

/// `cache.next_v3` for chunks that came from no response frame: copied
/// into a response of their own, so the cache compares them by contents.
V3State next_v3(SyncStateCache& cache, V3State prior, std::string_view list,
                std::vector<Chunk> chunks, storage::StoreKind kind,
                std::size_t bloom_bits) {
  auto response = std::make_shared<UpdateResponse>();
  response->lists.push_back({std::string(list), std::move(chunks)});
  return cache.next_v3(std::move(prior), SharedUpdate{response, nullptr},
                       response->lists.front(), kind, bloom_bits);
}

/// `cache.next_v4` for a slice that came from no response frame.
V4State next_v4(SyncStateCache& cache, V4State prior,
                const V4SliceUpdate& slice) {
  auto response = std::make_shared<V4UpdateResponse>();
  response->lists.push_back(slice);
  return cache.next_v4(std::move(prior), SharedV4Update{response, nullptr},
                       response->lists.front());
}

void seed_list(Server& server, int first, int count) {
  for (int i = first; i < first + count; ++i) {
    server.add_expression(kList, "site" + std::to_string(i) + ".example/");
  }
  server.seal_chunk(kList);
}

void churn_list(Server& server, int round) {
  server.remove_expression(kList, "site" + std::to_string(round) + ".example/");
  seed_list(server, 1000 + 10 * round, 3);
}

/// The listed prefixes plus random ones (the Bloom false-positive probes).
std::vector<crypto::Prefix32> probe_set(const Server& server) {
  std::vector<crypto::Prefix32> probes = server.prefixes(kList);
  util::Rng rng(0x5EED);
  for (int i = 0; i < 4096; ++i) {
    probes.push_back(static_cast<crypto::Prefix32>(rng.next()));
  }
  return probes;
}

std::vector<int> answers(const ProtocolClient& client,
                         const std::vector<crypto::Prefix32>& probes) {
  const auto flags = std::make_unique<bool[]>(probes.size());
  client.local_contains_many(probes, std::span<bool>(flags.get(),
                                                     probes.size()));
  return std::vector<int>(flags.get(), flags.get() + probes.size());
}

/// The synced state `client` holds for kList (null = none).
std::shared_ptr<const void> state_of(const ProtocolClient& client) {
  if (const auto* v3 = dynamic_cast<const Client*>(&client)) {
    return v3->synced_state(kList);
  }
  return dynamic_cast<const V4SlicedProtocol&>(client).synced_state(kList);
}

void expect_same_database(const ProtocolClient& shared,
                          const ProtocolClient& fresh,
                          const std::vector<crypto::Prefix32>& probes,
                          const std::string& label) {
  EXPECT_EQ(shared.local_prefix_count(), fresh.local_prefix_count()) << label;
  EXPECT_EQ(shared.local_store_bytes(), fresh.local_store_bytes()) << label;
  EXPECT_EQ(answers(shared, probes), answers(fresh, probes)) << label;
  if (const auto* v4 = dynamic_cast<const V4SlicedProtocol*>(&shared)) {
    EXPECT_EQ(v4->list_checksum(kList),
              dynamic_cast<const V4SlicedProtocol&>(fresh).list_checksum(
                  kList))
        << label;
  }
}

struct Generation {
  const char* label;
  ProtocolVersion protocol;
  storage::StoreKind kind;
  std::size_t bloom_bits;
};

TEST(SyncStateCacheTest, HitEqualsFreshPrivateBuild) {
  for (const Generation& g :
       {Generation{"v3 delta", ProtocolVersion::kV3Chunked,
                   storage::StoreKind::kDeltaCoded, 0},
        Generation{"v3 raw", ProtocolVersion::kV3Chunked,
                   storage::StoreKind::kRawSorted, 0},
        // 256 bits for ~40 prefixes: plenty of false positives to compare.
        Generation{"v3 bloom", ProtocolVersion::kV3Chunked,
                   storage::StoreKind::kBloom, 256},
        Generation{"v4", ProtocolVersion::kV4Sliced,
                   storage::StoreKind::kDeltaCoded, 0}}) {
    Server server;
    SimClock clock;
    InProcessTransport transport(server, clock, /*round_trip_ticks=*/0);
    seed_list(server, 0, 40);

    auto cache = std::make_shared<SyncStateCache>();
    ClientConfig config;
    config.protocol = g.protocol;
    config.store_kind = g.kind;
    config.bloom_bits = g.bloom_bits;
    config.sync_states = cache;
    ClientConfig private_config = config;
    private_config.sync_states = nullptr;
    const auto a = make_protocol_client(transport, config);
    const auto b = make_protocol_client(transport, config);
    // Skips round 1, so in round 2 it presents round 0's state with a
    // different update than the one that state's slot last built.
    const auto lagging = make_protocol_client(transport, config);
    const auto fresh = make_protocol_client(transport, private_config);
    const std::vector<ProtocolClient*> clients = {a.get(), b.get(),
                                                  fresh.get()};
    for (ProtocolClient* client : clients) client->subscribe(kList);
    lagging->subscribe(kList);

    constexpr std::uint64_t kBuildsAfterRound[] = {1, 2, 4};
    for (int round = 0; round < 3; ++round) {
      const std::string label =
          std::string(g.label) + " round " + std::to_string(round);
      if (round > 0) churn_list(server, round);
      for (ProtocolClient* client : clients) {
        ASSERT_TRUE(client->update()) << label;
      }
      if (round != 1) {
        ASSERT_TRUE(lagging->update()) << label;
      }
      // a builds, b hits; in round 2 the lagging client's (prior, update)
      // is new too. Shared states are one object.
      EXPECT_EQ(cache->builds(), kBuildsAfterRound[round]) << label;
      EXPECT_EQ(state_of(*a), state_of(*b)) << label;
      EXPECT_NE(state_of(*a), state_of(*fresh)) << label;

      const auto probes = probe_set(server);
      expect_same_database(*a, *fresh, probes, label);
      expect_same_database(*b, *fresh, probes, label);
      if (round != 1) {
        expect_same_database(*lagging, *fresh, probes, label + " lagging");
      }
      if (g.kind == storage::StoreKind::kBloom) {
        const auto hits = answers(*a, probes);
        const auto listed = server.prefix_count(kList);
        EXPECT_GT(std::count(hits.begin() + static_cast<long>(listed),
                             hits.end(), 1),
                  0)
            << label << ": no false positive was compared";
      }
      cache->prune();
    }
  }
}

class V4DesyncTest : public ::testing::Test {
 protected:
  V4DesyncTest()
      : plain_(server_, clock_, /*round_trip_ticks=*/0),
        tampered_(server_, clock_),
        cache_(std::make_shared<SyncStateCache>()) {
    seed_list(server_, 0, 20);
  }

  [[nodiscard]] std::unique_ptr<V4SlicedProtocol> make_client(
      Transport& transport) {
    ClientConfig config;
    config.protocol = ProtocolVersion::kV4Sliced;
    config.sync_states = cache_;
    auto client = std::make_unique<V4SlicedProtocol>(transport, config);
    client->subscribe(kList);
    EXPECT_TRUE(client->update());
    return client;
  }

  [[nodiscard]] std::uint32_t server_checksum() const {
    return storage::RawHashStore::checksum_of(server_.prefixes(kList));
  }

  Server server_;
  SimClock clock_;
  InProcessTransport plain_;
  TamperingTransport tampered_;
  std::shared_ptr<SyncStateCache> cache_;
};

TEST_F(V4DesyncTest, OutOfRangeRemovalDesyncsOnlyItsReceiver) {
  const auto victim = make_client(tampered_);
  const auto peer = make_client(plain_);
  const auto idle = make_client(plain_);
  const V4State prior = peer->synced_state(kList);
  ASSERT_EQ(victim->synced_state(kList), prior);
  ASSERT_EQ(idle->synced_state(kList), prior);
  const std::vector<crypto::Prefix32> prior_set = prior->prefixes();

  churn_list(server_, 1);
  tampered_.tamper_next_v4 = [](V4UpdateResponse& response) {
    response.lists.at(0).removal_indices.push_back(1u << 30);
  };
  EXPECT_FALSE(victim->update());
  EXPECT_EQ(victim->list_state(kList), 0u);
  EXPECT_EQ(victim->local_prefix_count(), 0u);
  EXPECT_EQ(victim->metrics().updates_failed, 1u);

  // The shared prior is untouched: the idle client still holds it whole.
  EXPECT_EQ(idle->synced_state(kList), prior);
  EXPECT_EQ(prior->prefixes(), prior_set);
  EXPECT_EQ(prior->checksum(), storage::RawHashStore::checksum_of(prior_set));

  EXPECT_TRUE(peer->update());
  EXPECT_EQ(peer->metrics().updates_failed, 0u);
  EXPECT_EQ(peer->list_checksum(kList), server_checksum());

  // The victim's next update is a full reset onto the same set.
  EXPECT_TRUE(victim->update());
  EXPECT_EQ(victim->list_checksum(kList), server_checksum());
  EXPECT_EQ(victim->local_prefix_count(), peer->local_prefix_count());
}

TEST_F(V4DesyncTest, WrongChecksumDesyncsOnlyItsReceiver) {
  const auto victim = make_client(tampered_);
  const auto peer = make_client(plain_);
  ASSERT_EQ(victim->synced_state(kList), peer->synced_state(kList));

  churn_list(server_, 1);
  // The victim asks first, so it runs the build the peer then hits; only
  // the checksum it was sent is wrong, and that check is its own.
  tampered_.tamper_next_v4 = [](V4UpdateResponse& response) {
    response.lists.at(0).checksum ^= 1u;
  };
  const std::uint64_t builds_before = cache_->builds();
  EXPECT_FALSE(victim->update());
  EXPECT_EQ(victim->list_state(kList), 0u);
  EXPECT_EQ(victim->local_prefix_count(), 0u);
  EXPECT_EQ(victim->metrics().updates_failed, 1u);
  EXPECT_EQ(cache_->builds(), builds_before + 1);

  EXPECT_TRUE(peer->update());
  EXPECT_EQ(cache_->builds(), builds_before + 1) << "the peer did not hit";
  EXPECT_EQ(peer->metrics().updates_failed, 0u);
  EXPECT_EQ(peer->list_checksum(kList), server_checksum());
  EXPECT_EQ(peer->list_state(kList), server_.chunk_sequence(kList));
}

/// The prefixes of the state `client` holds for kList (empty = none).
std::vector<crypto::Prefix32> held_prefixes(const ProtocolClient& client) {
  if (const auto* v3 = dynamic_cast<const Client*>(&client)) {
    const auto state = v3->synced_state(kList);
    return state ? state->chunks.effective_prefixes()
                 : std::vector<crypto::Prefix32>{};
  }
  const auto state =
      dynamic_cast<const V4SlicedProtocol&>(client).synced_state(kList);
  return state ? state->prefixes() : std::vector<crypto::Prefix32>{};
}

TEST(SyncStateCacheTest, ClientWithoutCacheHoldsTheSharedStatesAndNoMore) {
  Server server;
  SimClock clock;
  InProcessTransport plain(server, clock, /*round_trip_ticks=*/0);
  TamperingTransport tampered(server, clock);
  seed_list(server, 0, 20);
  auto cache = std::make_shared<SyncStateCache>();
  // Each pair: a client with no cache and its twin on the shared cache.
  // The desynced pair shares the tampered transport, so each of its
  // clients is sent the same tampered slices.
  struct Pair {
    const char* label;
    std::unique_ptr<ProtocolClient> alone;
    std::unique_ptr<ProtocolClient> shared;
  };
  const auto make_pair = [&](const char* label, ProtocolVersion protocol,
                             Transport& transport) {
    ClientConfig config;
    config.protocol = protocol;
    Pair pair{label, make_protocol_client(transport, config), nullptr};
    config.sync_states = cache;
    pair.shared = make_protocol_client(transport, config);
    pair.alone->subscribe(kList);
    pair.shared->subscribe(kList);
    return pair;
  };
  Pair pairs[] = {make_pair("v3", ProtocolVersion::kV3Chunked, plain),
                  make_pair("v4", ProtocolVersion::kV4Sliced, plain),
                  make_pair("v4 desynced", ProtocolVersion::kV4Sliced,
                            tampered)};
  const Pair& desynced = pairs[2];

  // Round 2 sends the desynced pair an out-of-range removal (its apply
  // fails), round 3 a wrong checksum (its build succeeds, its check
  // fails); round 4 resyncs it from nothing.
  for (int round = 0; round < 5; ++round) {
    if (round > 0) churn_list(server, round);
    const auto probes = probe_set(server);
    for (Pair& pair : pairs) {
      const std::string label =
          std::string(pair.label) + " round " + std::to_string(round);
      const bool tamper = &pair == &desynced && (round == 2 || round == 3);
      const std::weak_ptr<const void> previous = state_of(*pair.alone);
      for (ProtocolClient* client : {pair.alone.get(), pair.shared.get()}) {
        if (tamper && round == 2) {
          tampered.tamper_next_v4 = [](V4UpdateResponse& response) {
            response.lists.at(0).removal_indices.push_back(1u << 30);
          };
        } else if (tamper) {
          tampered.tamper_next_v4 = [](V4UpdateResponse& response) {
            response.lists.at(0).checksum ^= 1u;
          };
        }
        EXPECT_EQ(client->update(), !tamper) << label;
      }
      // The same states by content; both null after a desync.
      const auto state = state_of(*pair.alone);
      EXPECT_EQ(state == nullptr, state_of(*pair.shared) == nullptr)
          << label;
      EXPECT_EQ(state == nullptr, tamper) << label;
      EXPECT_EQ(held_prefixes(*pair.alone), held_prefixes(*pair.shared))
          << label;
      expect_same_database(*pair.shared, *pair.alone, probes, label);
      // Nothing but the client (and `state` here) holds its state, and
      // the state it moved past is gone: every round changed the list.
      if (state) {
        EXPECT_EQ(state.use_count(), 2) << label;
      }
      EXPECT_TRUE(previous.expired()) << label;
    }
  }
  EXPECT_EQ(desynced.alone->metrics().updates_failed, 2u);
  EXPECT_EQ(desynced.shared->metrics().updates_failed, 2u);
}

TEST(SyncStateCacheTest, ResentV3ChunkStaysIdempotent) {
  SyncStateCache cache;
  const Chunk add1{1, ChunkType::kAdd, {10, 20, 30}};
  const Chunk add2{2, ChunkType::kAdd, {40}};
  const Chunk sub3{3, ChunkType::kSub, {20}};
  const auto kind = storage::StoreKind::kDeltaCoded;

  const auto s1 = next_v3(cache, nullptr, kList, std::vector{add1}, kind, 0);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(cache.builds(), 1u);

  // A re-sent chunk -- even one whose number is reused for other
  // contents -- changes nothing: the same state comes back, unbuilt.
  EXPECT_EQ(next_v3(cache, s1, kList, std::vector{add1}, kind, 0), s1);
  const Chunk reused1{1, ChunkType::kAdd, {99}};
  EXPECT_EQ(next_v3(cache, s1, kList, std::vector{reused1}, kind, 0), s1);
  EXPECT_EQ(cache.builds(), 1u);

  // Mixed into new chunks, the re-sent one is ignored.
  const auto resent =
      next_v3(cache, s1, kList, std::vector{add1, add2, sub3}, kind, 0);
  SyncStateCache fresh_cache;
  const auto fresh =
      next_v3(fresh_cache, s1, kList, std::vector{add2, sub3}, kind, 0);
  const std::vector<crypto::Prefix32> expected = {10, 30, 40};
  EXPECT_EQ(resent->chunks.effective_prefixes(), expected);
  EXPECT_EQ(fresh->chunks.effective_prefixes(), expected);
  EXPECT_EQ(resent->store->size(), 3u);
  EXPECT_EQ(resent->store->memory_bytes(), fresh->store->memory_bytes());
}

template <typename Get>
void race(Get get, SyncStateCache& cache, std::uint64_t builds_after) {
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<decltype(get())> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      results[static_cast<std::size_t>(t)] = get();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  ASSERT_NE(results[0], nullptr);
  for (const auto& result : results) EXPECT_EQ(result, results[0]);
  EXPECT_EQ(cache.builds(), builds_after);
}

TEST(SyncStateCacheTest, RacingGetOrBuildBuildsOnce) {
  SyncStateCache cache;
  const auto kind = storage::StoreKind::kBloom;
  const auto v3_prior =
      next_v3(cache, nullptr, kList,
              std::vector{Chunk{1, ChunkType::kAdd, {1, 2, 3}}}, kind, 512);
  const std::vector<Chunk> v3_update = {Chunk{2, ChunkType::kAdd, {4, 5}}};
  race([&] { return next_v3(cache, v3_prior, kList, v3_update, kind, 512); },
       cache, 2);

  V4SliceUpdate reset;
  reset.list_name = kList;
  reset.full_reset = true;
  reset.additions = {10, 20, 30};
  const auto v4_prior = next_v4(cache, nullptr, reset);
  V4SliceUpdate slice;
  slice.list_name = kList;
  slice.removal_indices = {1};
  slice.additions = {25};
  race([&] { return next_v4(cache, v4_prior, slice); }, cache, 4);
}

/// What a fleet run shows of its shared cache: builds and locked calls per
/// round, and per round which clients share a state (each client's index
/// of the first client holding the same object).
struct FleetRun {
  std::vector<std::uint64_t> builds;
  std::vector<std::uint64_t> locked;
  std::vector<std::vector<std::size_t>> sharing;
  std::vector<std::vector<int>> answers;
};

/// Six v3 and six v4 clients spread over two transports (two engine
/// shards), re-syncing through four churn rounds -- one client lagging a
/// round -- on a shared cache pruned after every round.
template <typename TransportT>
FleetRun run_fleet() {
  Server server;
  SimClock clock;
  TransportT first(server, clock);
  TransportT second(server, clock);
  seed_list(server, 0, 30);
  auto cache =
      std::make_shared<SyncStateCache>();
  std::vector<std::unique_ptr<ProtocolClient>> clients;
  for (int i = 0; i < 12; ++i) {
    ClientConfig config;
    config.protocol = i < 6 ? ProtocolVersion::kV3Chunked
                            : ProtocolVersion::kV4Sliced;
    config.sync_states = cache;
    clients.push_back(
        make_protocol_client(i % 2 == 0 ? static_cast<Transport&>(first)
                                        : static_cast<Transport&>(second),
                             config));
    clients.back()->subscribe(kList);
  }
  FleetRun run;
  for (int round = 0; round < 4; ++round) {
    if (round > 0) churn_list(server, round);
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (round == 1 && (i == 4 || i == 10)) continue;  // lagging
      EXPECT_TRUE(clients[i]->update()) << "round " << round;
    }
    cache->prune();
    server.publish_update_cache();
    run.builds.push_back(cache->builds());
    run.locked.push_back(cache->lock_stats().acquisitions);
    std::vector<std::size_t> sharing;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      std::size_t j = 0;
      while (state_of(*clients[j]) != state_of(*clients[i])) ++j;
      sharing.push_back(j);
    }
    run.sharing.push_back(std::move(sharing));
    const auto probes = probe_set(server);
    for (const auto& client : clients) {
      run.answers.push_back(answers(*client, probes));
    }
  }
  return run;
}

TEST(SyncStateCacheTest, EqualFramesInSeparateBuffersShareLikeOneFrame) {
  const FleetRun shared = run_fleet<InProcessTransport>();
  const FleetRun copied = run_fleet<CopyingTransport>();
  EXPECT_EQ(copied.builds, shared.builds);
  EXPECT_EQ(copied.locked, shared.locked);
  EXPECT_EQ(copied.sharing, shared.sharing);
  EXPECT_EQ(copied.answers, shared.answers);
  // Clients on the two transports share one state per generation, and the
  // lagging clients hold states of their own after round 1.
  const std::vector<std::size_t> in_step = {0, 0, 0, 0, 0, 0,
                                            6, 6, 6, 6, 6, 6};
  EXPECT_EQ(shared.sharing[0], in_step);
  EXPECT_EQ(shared.sharing[1], (std::vector<std::size_t>{
                                   0, 0, 0, 0, 4, 0, 6, 6, 6, 6, 10, 6}));
  // Per round: one v3 and one v4 build, and from round 2 on one more each
  // for the lagging clients, which reach every state along a path of
  // their own.
  EXPECT_EQ(shared.builds, (std::vector<std::uint64_t>{2, 4, 8, 12}));
}

TEST(SyncStateCacheTest, RacingGetOrBuildBuildsOnceAcrossAPublish) {
  SyncStateCache cache;
  const auto kind = storage::StoreKind::kBloom;
  const auto v3_prior =
      next_v3(cache, nullptr, kList,
              std::vector{Chunk{1, ChunkType::kAdd, {1, 2, 3}}}, kind, 512);
  const std::vector<Chunk> v3_update = {Chunk{2, ChunkType::kAdd, {4, 5}}};
  race([&] { return next_v3(cache, v3_prior, kList, v3_update, kind, 512); },
       cache, 2);
  const auto built = next_v3(cache, v3_prior, kList, v3_update, kind, 512);

  // Published: the same update hits with no lock, as a frame-less update
  // (a content compare) and as a shared frame (a pointer compare).
  cache.prune();
  const std::uint64_t locked = cache.lock_stats().acquisitions;
  race([&] { return next_v3(cache, v3_prior, kList, v3_update, kind, 512); },
       cache, 2);
  auto response = std::make_shared<UpdateResponse>();
  response->lists.push_back({kList, v3_update});
  const SharedUpdate shared{
      response, std::make_shared<const std::vector<std::uint8_t>>(
                    wire::encode_update_response(*response))};
  race([&] {
         return cache.next_v3(v3_prior, shared, response->lists[0], kind, 512);
       },
       cache, 2);
  EXPECT_EQ(cache.lock_stats().acquisitions, locked);
  EXPECT_EQ(next_v3(cache, v3_prior, kList, v3_update, kind, 512), built);

  // A different update from the same prior: one build, shared by all.
  const std::vector<Chunk> other = {Chunk{2, ChunkType::kAdd, {6}}};
  race([&] { return next_v3(cache, v3_prior, kList, other, kind, 512); },
       cache, 3);

  V4SliceUpdate reset;
  reset.list_name = kList;
  reset.full_reset = true;
  reset.additions = {10, 20, 30};
  const auto v4_prior = next_v4(cache, nullptr, reset);
  V4SliceUpdate slice;
  slice.list_name = kList;
  slice.removal_indices = {1};
  slice.additions = {25};
  race([&] { return next_v4(cache, v4_prior, slice); }, cache, 5);
  cache.prune();
  race([&] { return next_v4(cache, v4_prior, slice); }, cache, 5);
}

TEST(SyncStateCacheTest, ChurnedRunKeepsEntriesBoundedByLiveStates) {
  sim::SimConfig config;
  config.num_users = 128;
  config.ticks = 300;
  config.num_shards = 4;
  config.num_threads = 4;
  config.seed = 12;
  config.corpus.num_hosts = 300;
  config.corpus.seed = 12;
  config.corpus.max_pages = 40;
  config.blacklist.lists = {"goog-malware-shavar", "goog-phish-shavar"};
  config.blacklist.page_fraction = 0.05;
  config.blacklist.site_fraction = 0.02;
  config.mix_protocol = ProtocolVersion::kV4Sliced;
  config.mix_fraction = 0.5;
  config.churn.epoch_ticks = 5;
  config.churn.add_rate = 0.05;
  config.churn.remove_rate = 0.03;
  // Re-syncs lag epochs, so clients reach one list state along several
  // paths -- several live identities per list.
  config.churn.minimum_wait_ticks = 12;
  sim::Engine engine(config);

  const auto live_states = [&] {
    std::set<const void*> live;
    for (std::size_t u = 0; u < engine.num_users(); ++u) {
      const ProtocolClient& client = engine.user_client(u);
      for (const auto& list : config.blacklist.lists) {
        const void* state =
            client.version() == ProtocolVersion::kV3Chunked
                ? static_cast<const void*>(
                      dynamic_cast<const Client&>(client)
                          .synced_state(list)
                          .get())
                : static_cast<const void*>(
                      dynamic_cast<const V4SlicedProtocol&>(client)
                          .synced_state(list)
                          .get());
        if (state != nullptr) live.insert(state);
      }
    }
    return live.size();
  };
  // Checked after every tick (the engine prunes at each barrier); the
  // entries exist only while some client can still present their prior.
  std::size_t max_entries = 0;
  while (engine.step()) {
    const std::size_t entries = engine.sync_states().live_entries();
    max_entries = std::max(max_entries, entries);
    ASSERT_LE(entries, live_states()) << "tick " << engine.current_tick();
  }
  ASSERT_GT(engine.metrics().churn_updates, 0u);
  EXPECT_GT(max_entries, 0u);
  // Sharing is real: far fewer builds than state transitions.
  EXPECT_LT(engine.metrics().client_state_builds * 4,
            engine.population_metrics().updates_attempted *
                config.blacklist.lists.size());
}

}  // namespace
}  // namespace sbp::sb
