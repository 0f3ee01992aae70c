// Server checkpoint/restore (docs/persistence.md): the serving-state codec
// behind the snapshot container. Pins the three contracts the persistence
// tier rests on:
//   1. checkpoint -> restore -> checkpoint is a byte fixpoint;
//   2. a restored server is byte-indistinguishable to every client
//      generation (v3 chunks, v4 slices + checksums, full-hash answers);
//   3. restore is all-or-nothing: any malformed section leaves the target
//      server untouched and reports a located error.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sb/server.hpp"
#include "sb/wire/frames.hpp"
#include "storage/snapshot.hpp"

namespace sbp::sb {
namespace {

/// A server mid-churn: sealed add + sub chunks, an OPEN chunk with pending
/// adds, an orphan prefix, a non-default minimum wait -- every piece of
/// state the snapshot must carry.
Server populated_server() {
  Server server(Provider::kYandex);
  server.create_list("ydx-malware-shavar");
  server.create_list("ydx-phish-shavar");
  for (int i = 0; i < 20; ++i) {
    const std::string host = "evil" + std::to_string(i) + ".example.com/";
    server.add_expression("ydx-malware-shavar", host);
  }
  server.seal_chunk("ydx-malware-shavar");
  server.remove_expression("ydx-malware-shavar", "evil3.example.com/");
  for (int i = 0; i < 5; ++i) {
    server.add_expression("ydx-phish-shavar",
                          "phish" + std::to_string(i) + ".example.com/");
  }
  server.seal_chunk("ydx-phish-shavar");
  server.add_orphan_prefix("ydx-phish-shavar", 0xDEADBEEFu);
  // Unsealed adds: the open chunk must survive a checkpoint verbatim.
  server.add_expression("ydx-malware-shavar", "pending.example.com/");
  server.add_expression("ydx-malware-shavar", "pending2.example.com/");
  server.set_minimum_wait(7);
  return server;
}

std::vector<std::uint8_t> fresh_v3_frame(const Server& server) {
  UpdateRequest request;
  for (const std::string& name : server.list_names()) {
    request.lists.push_back({name, {}, {}});
  }
  return wire::encode_update_request(request);
}

std::vector<std::uint8_t> fresh_v4_frame(const Server& server) {
  V4UpdateRequest request;
  for (const std::string& name : server.list_names()) {
    request.lists.push_back({name, 0});
  }
  return wire::encode_v4_update_request(request);
}

TEST(ServerSnapshotTest, CheckpointRestoreCheckpointIsByteFixpoint) {
  const Server original = populated_server();
  const std::vector<std::uint8_t> first = original.checkpoint_bytes();

  Server restored;
  std::string error;
  ASSERT_TRUE(restored.restore_bytes(first, &error)) << error;
  EXPECT_EQ(restored.checkpoint_bytes(), first);
}

TEST(ServerSnapshotTest, CheckpointIsDeterministic) {
  const Server a = populated_server();
  const Server b = populated_server();
  EXPECT_EQ(a.checkpoint_bytes(), b.checkpoint_bytes());
}

TEST(ServerSnapshotTest, RestoredServerIsByteIndistinguishable) {
  Server original = populated_server();
  Server restored;
  std::string error;
  ASSERT_TRUE(restored.restore_bytes(original.checkpoint_bytes(), &error))
      << error;

  EXPECT_EQ(restored.provider(), Provider::kYandex);
  EXPECT_EQ(restored.list_names(), original.list_names());
  for (const std::string& name : original.list_names()) {
    EXPECT_EQ(restored.chunk_sequence(name), original.chunk_sequence(name))
        << name;
    EXPECT_EQ(restored.prefixes(name), original.prefixes(name)) << name;
    for (const crypto::Prefix32 prefix : original.prefixes(name)) {
      EXPECT_EQ(restored.digests_for(name, prefix),
                original.digests_for(name, prefix))
          << name << "/" << prefix;
    }
  }

  // The wire check: fresh v3 and v4 clients get identical encoded frames
  // (chunks, slices, checksums, minimum wait) from either server.
  const auto v3 = fresh_v3_frame(original);
  const auto v4 = fresh_v4_frame(original);
  const auto v3_a = original.serve_frame(v3, /*tick=*/0);
  const auto v3_b = restored.serve_frame(v3, /*tick=*/0);
  ASSERT_NE(v3_a, nullptr);
  ASSERT_NE(v3_b, nullptr);
  EXPECT_EQ(*v3_a, *v3_b);
  const auto v4_a = original.serve_frame(v4, /*tick=*/0);
  const auto v4_b = restored.serve_frame(v4, /*tick=*/0);
  ASSERT_NE(v4_a, nullptr);
  ASSERT_NE(v4_b, nullptr);
  EXPECT_EQ(*v4_a, *v4_b);

  // Full-hash answers match too (the read path serves from the restored
  // digest maps).
  const auto some = original.prefixes("ydx-malware-shavar");
  ASSERT_FALSE(some.empty());
  const auto matches_a =
      original.get_full_hashes({some.front()}, /*cookie=*/1, /*tick=*/0);
  const auto matches_b =
      restored.get_full_hashes({some.front()}, /*cookie=*/1, /*tick=*/0);
  ASSERT_EQ(matches_a.matches.size(), matches_b.matches.size());
  const auto& list_a = matches_a.matches.at(some.front());
  const auto& list_b = matches_b.matches.at(some.front());
  ASSERT_EQ(list_a.size(), list_b.size());
  for (std::size_t i = 0; i < list_a.size(); ++i) {
    EXPECT_EQ(list_a[i].list_name, list_b[i].list_name);
    EXPECT_EQ(list_a[i].digest, list_b[i].digest);
  }
}

TEST(ServerSnapshotTest, OpenChunkSealsIdenticallyAfterRestore) {
  // Continue mutating both servers past the checkpoint: the open chunk was
  // carried verbatim, so the NEXT sealed chunk is identical on both sides.
  Server original = populated_server();
  Server restored;
  std::string error;
  ASSERT_TRUE(restored.restore_bytes(original.checkpoint_bytes(), &error))
      << error;
  for (Server* server : {&original, &restored}) {
    server->add_expression("ydx-malware-shavar", "late.example.com/");
    server->seal_chunk("ydx-malware-shavar");
  }
  EXPECT_EQ(original.checkpoint_bytes(), restored.checkpoint_bytes());
  const auto v3 = fresh_v3_frame(original);
  const auto a = original.serve_frame(v3, /*tick=*/0);
  const auto b = restored.serve_frame(v3, /*tick=*/0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(*a, *b);
}

TEST(ServerSnapshotTest, RestoreReplacesPreviousStateWholesale) {
  Server target;  // starts as a Google server with its own list
  target.create_list("goog-malware-shavar");
  target.add_expression("goog-malware-shavar", "old.example.com/");
  target.seal_chunk("goog-malware-shavar");

  const Server source = populated_server();
  std::string error;
  ASSERT_TRUE(target.restore_bytes(source.checkpoint_bytes(), &error))
      << error;
  EXPECT_EQ(target.provider(), Provider::kYandex);
  EXPECT_EQ(target.list_names(), source.list_names());
  EXPECT_EQ(target.prefix_count("goog-malware-shavar"), 0u);
  EXPECT_EQ(target.checkpoint_bytes(), source.checkpoint_bytes());
}

TEST(ServerSnapshotTest, EmptyServerRoundTrips) {
  // A server with no lists is a valid snapshot: it restores into a fresh
  // server as a byte fixpoint, and over a populated one it empties it.
  const Server empty;
  const std::vector<std::uint8_t> bytes = empty.checkpoint_bytes();
  std::string error;
  Server fresh;
  ASSERT_TRUE(fresh.restore_bytes(bytes, &error)) << error;
  EXPECT_EQ(fresh.checkpoint_bytes(), bytes);

  Server target = populated_server();
  ASSERT_TRUE(target.restore_bytes(bytes, &error)) << error;
  EXPECT_EQ(target.provider(), empty.provider());
  EXPECT_TRUE(target.list_names().empty());
  EXPECT_EQ(target.checkpoint_bytes(), bytes);
}

TEST(ServerSnapshotTest, RestoreClearsRetainedQueryLog) {
  Server target = populated_server();
  const auto some = target.prefixes("ydx-malware-shavar");
  ASSERT_FALSE(some.empty());
  (void)target.get_full_hashes({some.front()}, /*cookie=*/9, /*tick=*/1);
  ASSERT_FALSE(target.query_log().empty());
  std::string error;
  ASSERT_TRUE(target.restore_bytes(populated_server().checkpoint_bytes(),
                                   &error))
      << error;
  EXPECT_TRUE(target.query_log().empty());
}

TEST(ServerSnapshotTest, MissingSectionsAreDistinctErrors) {
  const Server source = populated_server();
  storage::SnapshotWriter full;
  source.checkpoint_sections(full);
  ASSERT_EQ(full.sections().size(), 2u);

  // Meta only: the lists section is missing.
  storage::SnapshotWriter meta_only;
  meta_only.section(full.sections()[0].id, full.sections()[0].payload);
  const auto meta_parsed = storage::parse_snapshot(meta_only.encode());
  ASSERT_TRUE(meta_parsed.has_value());
  Server target;
  std::string error;
  EXPECT_FALSE(target.restore_sections(*meta_parsed, &error));
  EXPECT_NE(error.find("lists"), std::string::npos) << error;

  // Lists only: the server-meta section is missing.
  storage::SnapshotWriter lists_only;
  lists_only.section(full.sections()[1].id, full.sections()[1].payload);
  const auto lists_parsed = storage::parse_snapshot(lists_only.encode());
  ASSERT_TRUE(lists_parsed.has_value());
  error.clear();
  EXPECT_FALSE(target.restore_sections(*lists_parsed, &error));
  EXPECT_NE(error.find("server-meta"), std::string::npos) << error;
}

TEST(ServerSnapshotTest, FailedRestoreLeavesTargetUntouched) {
  Server target = populated_server();
  const std::vector<std::uint8_t> before = target.checkpoint_bytes();

  // Corrupt a real snapshot's lists payload length so the section decode
  // (not the container checksum) fails: truncate the payload INSIDE a
  // section by rebuilding the container with a cut payload.
  storage::SnapshotWriter full;
  populated_server().checkpoint_sections(full);
  storage::SnapshotWriter cut;
  for (const auto& section : full.sections()) {
    auto payload = section.payload;
    if (section.id == snapshot_section::kLists && payload.size() > 4) {
      payload.resize(payload.size() / 2);
    }
    cut.section(section.id, payload);
  }
  const auto parsed = storage::parse_snapshot(cut.encode());
  ASSERT_TRUE(parsed.has_value());  // container is fine; the SECTION is cut
  std::string error;
  EXPECT_FALSE(target.restore_sections(*parsed, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(target.checkpoint_bytes(), before);  // all-or-nothing
}

TEST(ServerSnapshotTest, BackendRoundtrip) {
  storage::MemoryBackend backend;
  const Server source = populated_server();
  std::string error;
  ASSERT_TRUE(source.checkpoint(backend, &error)) << error;
  Server restored;
  ASSERT_TRUE(restored.restore(backend, &error)) << error;
  EXPECT_EQ(restored.checkpoint_bytes(), source.checkpoint_bytes());

  // Restoring from an empty backend is a located failure.
  storage::MemoryBackend empty;
  Server other;
  EXPECT_FALSE(other.restore(empty, &error));
  EXPECT_NE(error.find("memory"), std::string::npos) << error;
}

}  // namespace
}  // namespace sbp::sb
