// The daemon under hostile and broken peers: garbage bytes, oversize
// envelope lengths, valid envelopes wrapping undecodable frames, peers
// that vanish mid-frame -- every case must close exactly the offending
// connection (counted in decode_errors where it is a protocol violation)
// and leave the daemon serving everyone else. Also pins the
// SocketTransport failure surface: a dead endpoint fails every request
// fast with nullopt + failed_requests, never crashes or blocks.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "net/daemon.hpp"
#include "net/frame_codec.hpp"
#include "net/socket.hpp"
#include "net/socket_transport.hpp"
#include "sb/server.hpp"
#include "sb/transport.hpp"
#include "sb/wire/frames.hpp"

namespace sbp::net {
namespace {

std::string test_socket_path(const char* tag) {
  return "/tmp/sbp_daemon_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// A daemon over a tiny sealed server, stepped manually (no thread): each
/// pump() runs poll cycles until the daemon goes quiet.
struct Harness {
  Harness() {
    server.add_expression("goog-malware-shavar", "evil.example/");
    server.seal_chunk("goog-malware-shavar");
  }

  void listen(const std::string& endpoint) {
    std::string error;
    ASSERT_TRUE(daemon.listen(endpoint, &error)) << error;
  }

  void pump() {
    // A few zero-ish-timeout cycles: accept, read, serve, flush. The
    // short timeout still yields to a peer that is mid-write.
    for (int i = 0; i < 50; ++i) daemon.poll_once(/*timeout_ms=*/2);
  }

  sb::Server server;
  Daemon daemon{server};
};

Fd connect_to(const std::string& spec) {
  std::string error;
  const auto endpoint = parse_endpoint(spec, &error);
  EXPECT_TRUE(endpoint.has_value()) << error;
  Fd fd = connect_endpoint(*endpoint, &error);
  EXPECT_TRUE(fd.valid()) << error;
  return fd;
}

/// Blocking request/response exchange over a raw fd.
std::optional<std::vector<std::uint8_t>> raw_round_trip(
    int fd, std::uint64_t tick, const std::vector<std::uint8_t>& payload) {
  const auto envelope = encode_envelope(tick, payload);
  if (!write_all(fd, envelope.data(), envelope.size())) return std::nullopt;
  std::uint8_t header[kEnvelopeHeaderBytes];
  if (!read_exact(fd, header, sizeof(header))) return std::nullopt;
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            static_cast<std::uint32_t>(header[1]) << 8 |
                            static_cast<std::uint32_t>(header[2]) << 16 |
                            static_cast<std::uint32_t>(header[3]) << 24;
  std::vector<std::uint8_t> out(len);
  if (len > 0 && !read_exact(fd, out.data(), out.size())) {
    return std::nullopt;
  }
  return out;
}

TEST(DaemonTest, GarbageBytesCloseOnlyTheOffendingConnection) {
  Harness harness;
  const std::string path = test_socket_path("garbage");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  Fd good = connect_to("unix:" + path);
  Fd bad = connect_to("unix:" + path);
  harness.pump();
  EXPECT_EQ(harness.daemon.open_connections(), 2u);

  // The bad peer declares a 4 GB payload.
  const std::uint8_t poison[kEnvelopeHeaderBytes] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(write_all(bad.get(), poison, sizeof(poison)));
  harness.pump();
  EXPECT_EQ(harness.daemon.open_connections(), 1u);
  EXPECT_EQ(harness.daemon.stats().decode_errors, 1u);

  // The good peer still gets served on the same daemon.
  const auto request = sb::wire::encode_full_hash_request({7, {0x01020304}});
  std::optional<std::vector<std::uint8_t>> response;
  std::thread client([&] { response = raw_round_trip(good.get(), 5, request); });
  harness.pump();
  client.join();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(sb::wire::decode_full_hash_response(*response).has_value());
  EXPECT_EQ(harness.daemon.stats().frames_served, 1u);

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, UndecodableFrameInsideValidEnvelopeIsAProtocolError) {
  Harness harness;
  const std::string path = test_socket_path("badframe");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  Fd peer = connect_to("unix:" + path);
  // Valid envelope, garbage payload: response tag (0x32) is not a request.
  const auto envelope = encode_envelope(1, {0x32, 0xDE, 0xAD});
  ASSERT_TRUE(write_all(peer.get(), envelope.data(), envelope.size()));
  harness.pump();
  EXPECT_EQ(harness.daemon.open_connections(), 0u);
  EXPECT_EQ(harness.daemon.stats().decode_errors, 1u);
  EXPECT_EQ(harness.daemon.stats().frames_served, 0u);

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, EmptyPayloadEnvelopeIsAProtocolError) {
  Harness harness;
  const std::string path = test_socket_path("empty");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  Fd peer = connect_to("unix:" + path);
  const auto envelope = encode_envelope(1, {});
  ASSERT_TRUE(write_all(peer.get(), envelope.data(), envelope.size()));
  harness.pump();
  EXPECT_EQ(harness.daemon.open_connections(), 0u);
  EXPECT_EQ(harness.daemon.stats().decode_errors, 1u);

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, PeerVanishingMidFrameJustClosesQuietly) {
  Harness harness;
  const std::string path = test_socket_path("vanish");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  {
    Fd peer = connect_to("unix:" + path);
    harness.pump();
    EXPECT_EQ(harness.daemon.open_connections(), 1u);
    // Half an envelope, then the destructor closes the socket.
    const auto envelope =
        encode_envelope(1, sb::wire::encode_full_hash_request({1, {2}}));
    ASSERT_TRUE(write_all(peer.get(), envelope.data(), envelope.size() / 2));
  }
  harness.pump();
  EXPECT_EQ(harness.daemon.open_connections(), 0u);
  // EOF mid-frame is a broken peer, not a served frame; nothing crashed.
  EXPECT_EQ(harness.daemon.stats().frames_served, 0u);
  EXPECT_EQ(harness.daemon.stats().connections_closed, 1u);

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, ManyRequestsPipelinedInOneWriteAllGetServed) {
  // A client is allowed to write N envelopes back-to-back before reading;
  // the daemon must serve all of them in order from one read burst.
  Harness harness;
  const std::string path = test_socket_path("pipeline");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  Fd peer = connect_to("unix:" + path);
  constexpr int kRequests = 17;
  std::vector<std::uint8_t> burst;
  const auto request = sb::wire::encode_full_hash_request({9, {0xAABBCCDD}});
  for (int i = 0; i < kRequests; ++i) {
    const auto envelope = encode_envelope(static_cast<std::uint64_t>(i),
                                          request);
    burst.insert(burst.end(), envelope.begin(), envelope.end());
  }
  ASSERT_TRUE(write_all(peer.get(), burst.data(), burst.size()));

  std::vector<std::uint64_t> response_ticks;
  std::thread client([&] {
    for (int i = 0; i < kRequests; ++i) {
      std::uint8_t header[kEnvelopeHeaderBytes];
      if (!read_exact(peer.get(), header, sizeof(header))) return;
      std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                          static_cast<std::uint32_t>(header[1]) << 8 |
                          static_cast<std::uint32_t>(header[2]) << 16 |
                          static_cast<std::uint32_t>(header[3]) << 24;
      std::uint64_t tick = 0;
      for (int b = 7; b >= 0; --b) tick = tick << 8 | header[4 + b];
      std::vector<std::uint8_t> payload(len);
      if (len > 0 && !read_exact(peer.get(), payload.data(), len)) return;
      response_ticks.push_back(tick);
    }
  });
  harness.pump();
  client.join();

  EXPECT_EQ(harness.daemon.stats().frames_served,
            static_cast<std::uint64_t>(kRequests));
  ASSERT_EQ(response_ticks.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(response_ticks[i], static_cast<std::uint64_t>(i))
        << "responses must come back in request order";
  }
  // The server logged each full-hash query at its envelope's tick.
  EXPECT_EQ(harness.server.query_log().size(),
            static_cast<std::size_t>(kRequests));

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, ShutdownDrainsPendingResponses) {
  Harness harness;
  const std::string path = test_socket_path("drain");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  Fd peer = connect_to("unix:" + path);
  const auto request = sb::wire::encode_full_hash_request({3, {0x01020304}});
  const auto envelope = encode_envelope(11, request);
  ASSERT_TRUE(write_all(peer.get(), envelope.data(), envelope.size()));
  harness.pump();
  EXPECT_EQ(harness.daemon.stats().frames_served, 1u);

  // Whether or not the response already flushed, shutdown must leave the
  // peer able to read it in full before seeing EOF.
  harness.daemon.shutdown(/*drain_ms=*/1000);
  EXPECT_EQ(harness.daemon.open_connections(), 0u);
  std::uint8_t header[kEnvelopeHeaderBytes];
  ASSERT_TRUE(read_exact(peer.get(), header, sizeof(header)));
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            static_cast<std::uint32_t>(header[1]) << 8 |
                            static_cast<std::uint32_t>(header[2]) << 16 |
                            static_cast<std::uint32_t>(header[3]) << 24;
  std::vector<std::uint8_t> payload(len);
  ASSERT_TRUE(read_exact(peer.get(), payload.data(), payload.size()));
  EXPECT_TRUE(sb::wire::decode_full_hash_response(payload).has_value());

  std::remove(path.c_str());
}

TEST(DaemonTest, SnapshotCountersAreTheDaemonStatsTable) {
  Harness harness;
  const std::string path = test_socket_path("counters");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  Fd good = connect_to("unix:" + path);
  Fd bad = connect_to("unix:" + path);
  // One full-hash request, then the same update request twice: the second
  // is served from the server's encode cache.
  const auto update =
      sb::wire::encode_update_request({{{"goog-malware-shavar", {}, {}}}});
  std::vector<std::uint8_t> burst;
  for (const auto& request :
       {sb::wire::encode_full_hash_request({5, {0x0A0B0C0D}}), update,
        update}) {
    const auto envelope = encode_envelope(0, request);
    burst.insert(burst.end(), envelope.begin(), envelope.end());
  }
  ASSERT_TRUE(write_all(good.get(), burst.data(), burst.size()));
  const std::uint8_t poison[kEnvelopeHeaderBytes] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(write_all(bad.get(), poison, sizeof(poison)));
  harness.pump();

  // Every DaemonStats::kCounters row in table order, then the server's
  // encode-cache hits and its locked update serves, each with the live
  // value. The daemon never publishes its encode cache, so both update
  // requests took the serve mutex.
  const DaemonStats& stats = harness.daemon.stats();
  EXPECT_EQ(stats.frames_served, 3u);
  EXPECT_EQ(stats.decode_errors, 1u);
  const util::CounterList counters = harness.daemon.snapshot().counters;
  const std::size_t rows = std::size(DaemonStats::kCounters);
  ASSERT_EQ(counters.size(), rows + 2);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto& field = DaemonStats::kCounters[i];
    EXPECT_EQ(counters[i].first, field.name);
    EXPECT_EQ(counters[i].second, stats.*field.member) << field.name;
  }
  EXPECT_EQ(counters[rows].first, "update_encode_cache_hits");
  EXPECT_EQ(counters[rows].second, 1u);
  EXPECT_EQ(counters[rows].second,
            harness.server.update_encode_cache_hits());
  EXPECT_EQ(counters[rows + 1].first, "update_serve_locked");
  EXPECT_EQ(counters[rows + 1].second, 2u);
  EXPECT_EQ(counters[rows + 1].second,
            harness.server.update_serve_lock().acquisitions);

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, ListenErrorsAreReportedNotFatal) {
  Harness harness;
  std::string error;
  EXPECT_FALSE(harness.daemon.listen("tcp:256.0.0.1:80", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(harness.daemon.listen("carrier-pigeon:coop", &error));
  EXPECT_FALSE(harness.daemon.listen("unix:", &error));
}

TEST(SocketTransportTest, DeadEndpointFailsEveryRequestFast) {
  sb::SimClock clock;
  SocketTransport transport("unix:/tmp/sbp_no_such_daemon.sock", clock);
  EXPECT_FALSE(transport.connected());
  EXPECT_FALSE(transport.error().empty());

  EXPECT_FALSE(transport.get_full_hashes_or_error({0x01020304}, 1)
                   .has_value());
  EXPECT_FALSE(transport.fetch_update_or_error({}).has_value());
  EXPECT_FALSE(transport.fetch_v4_update_or_error({}).has_value());
  EXPECT_FALSE(transport.lookup_v1_or_error("http://x.example/", 1)
                   .has_value());
  EXPECT_EQ(transport.stats().failed_requests, 4u);
  // Nothing was sent, so nothing may be counted as sent.
  EXPECT_EQ(transport.stats().bytes_up, 0u);
  EXPECT_EQ(transport.stats().bytes_down, 0u);
}

TEST(SocketTransportTest, DaemonDeathMidRunSurfacesAsFailedRequests) {
  Harness harness;
  const std::string path = test_socket_path("death");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  sb::SimClock clock;
  SocketTransport transport("unix:" + path, clock);
  harness.pump();
  ASSERT_TRUE(transport.connected());

  std::optional<sb::FullHashResponse> first;
  std::thread client([&] {
    first = transport.get_full_hashes_or_error({0xAABBCCDD}, 1);
  });
  harness.pump();
  client.join();
  ASSERT_TRUE(first.has_value());

  // Daemon dies; the next request must fail (EPIPE or EOF -- both count),
  // and every one after that fails fast without touching the socket.
  harness.daemon.shutdown(/*drain_ms=*/100);
  EXPECT_FALSE(transport.get_full_hashes_or_error({0x01020304}, 2)
                   .has_value());
  EXPECT_FALSE(transport.connected());
  EXPECT_FALSE(transport.lookup_v1_or_error("http://y.example/", 2)
                   .has_value());
  EXPECT_EQ(transport.stats().failed_requests, 2u);

  std::remove(path.c_str());
}

}  // namespace
}  // namespace sbp::net
