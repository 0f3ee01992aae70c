// THE network-equivalence contract, as a tier-1 test: the same scenario
// (config + seed) run through sbserved over a Unix socket must produce
// bit-identical deterministic observables to an in-process run --
//
//   * the daemon-side query log (every entry: tick, cookie, prefixes,
//     url, in order) equals the in-process server's log,
//   * client verdict/lookup metrics are equal,
//   * client-side TransportStats are equal FIELD-WISE (byte counters
//     count frame payloads only, so the envelope never shows), and the
//     daemon's own wire totals agree,
//   * per-channel obs byte counters are equal.
//
// Why this holds at threads=1: shard execution is sequential in shard
// order, every SocketTransport request is synchronous, and each request
// envelope carries the client's SimClock tick -- so the daemon receives
// and logs requests in exactly the order (and at exactly the ticks) the
// in-process server would. The daemon runs on a plain std::thread here;
// no signals involved (the poll_once() loop is owned by the caller by
// design).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>

#include "net/daemon.hpp"
#include "net/socket_transport.hpp"
#include "sim/engine.hpp"
#include "sim/log_sink.hpp"

namespace sbp::net {
namespace {

/// A population small enough to round-trip in well under a second, but
/// exercising every wire channel the engine can drive: v3 + v4 update
/// fleets (mix 0.5), shared full-hash lookups, multi-shard.
sim::SimConfig small_config() {
  sim::SimConfig config;
  config.num_users = 120;
  config.ticks = 40;
  config.num_shards = 4;
  config.num_threads = 1;
  config.seed = 913;
  config.corpus.num_hosts = 400;
  config.corpus.seed = 7;
  config.corpus.max_pages = 120;
  config.traffic.session_start_probability = 0.12;
  config.blacklist.page_fraction = 0.02;
  config.blacklist.site_fraction = 0.005;
  config.blacklist.max_entries = 512;
  config.mix_fraction = 0.5;  // half the fleet speaks v4
  config.full_hash_ttl = 8;
  config.url_cache_entries = 2048;
  config.site_cache_entries = 64;
  config.collect_metrics = true;  // per-channel byte counters
  return config;
}

std::string unique_socket_path() {
  // Unix socket paths must be short (108 bytes); /tmp beats any deep
  // build-tree CWD. PID keeps parallel ctest jobs apart.
  return "/tmp/sbp_net_eq_" + std::to_string(::getpid()) + ".sock";
}

struct DaemonHarness {
  explicit DaemonHarness(sb::Server& server) : daemon(server) {}

  void start(const std::string& endpoint) {
    std::string error;
    ASSERT_TRUE(daemon.listen(endpoint, &error)) << error;
    thread = std::thread([this] {
      while (!stop.load(std::memory_order_relaxed)) {
        daemon.poll_once(/*timeout_ms=*/20);
      }
    });
  }

  void finish() {
    if (thread.joinable()) {
      stop.store(true, std::memory_order_relaxed);
      thread.join();
    }
    daemon.shutdown(/*drain_ms=*/1000);
  }

  Daemon daemon;
  std::atomic<bool> stop{false};
  std::thread thread;
};

#define EXPECT_WIRE_EQ(field)                                            \
  EXPECT_EQ(networked_wire.field, in_process_wire.field)                 \
      << "TransportStats." #field " diverged between socket and "        \
         "in-process runs"

TEST(NetEquivalenceTest, SocketFleetMatchesInProcessRunBitForBit) {
  const sim::SimConfig config = small_config();

  // --- leg 1: the reference in-process run -------------------------------
  sim::InMemorySink in_process_log;
  sim::SimMetrics in_process_metrics;
  sb::ClientMetrics in_process_population;
  sb::TransportStats in_process_wire;
  obs::TransportObs in_process_channels;
  {
    sim::Engine engine(config);
    engine.attach_sink(&in_process_log, /*retain_in_memory=*/false);
    engine.run();
    in_process_metrics = engine.metrics();
    in_process_population = engine.population_metrics();
    in_process_wire = engine.transport_stats();
    in_process_channels.merge_from(engine.obs_snapshot().transport);
  }

  // --- leg 2: the same fleet through sbserved over a Unix socket ---------
  // The daemon serves the server of an engine built from the SAME config
  // with zero users: blacklist seeding is a function of corpus + seed
  // only, so its lists (and chunk/state-token sequences) are identical.
  sim::SimConfig server_config = config;
  server_config.num_users = 0;
  server_config.collect_metrics = false;
  sim::Engine server_engine(server_config);
  sim::InMemorySink daemon_log;
  server_engine.attach_sink(&daemon_log, /*retain_in_memory=*/false);

  DaemonHarness harness(server_engine.server());
  const std::string endpoint = "unix:" + unique_socket_path();
  harness.start(endpoint);
  if (::testing::Test::HasFatalFailure()) return;

  sim::SimMetrics networked_metrics;
  sb::ClientMetrics networked_population;
  sb::TransportStats networked_wire;
  obs::TransportObs networked_channels;
  {
    sim::SimConfig client_config = config;
    client_config.transport_factory = [&endpoint](std::size_t,
                                                  sb::SimClock& clock) {
      return std::make_unique<SocketTransport>(endpoint, clock);
    };
    sim::Engine engine(client_config);
    engine.run();
    networked_metrics = engine.metrics();
    networked_population = engine.population_metrics();
    networked_wire = engine.transport_stats();
    networked_channels.merge_from(engine.obs_snapshot().transport);
  }
  harness.finish();
  std::remove(unique_socket_path().c_str());

  // No transport failures: every request must have round-tripped.
  ASSERT_EQ(networked_wire.failed_requests, 0u);
  ASSERT_GT(harness.daemon.stats().frames_served, 0u);
  EXPECT_EQ(harness.daemon.stats().decode_errors, 0u);

  // --- the query log: the paper's adversarial observable -----------------
  ASSERT_EQ(daemon_log.entries().size(), in_process_log.entries().size());
  for (std::size_t i = 0; i < daemon_log.entries().size(); ++i) {
    ASSERT_EQ(daemon_log.entries()[i], in_process_log.entries()[i])
        << "query-log entry " << i
        << " diverged (tick/cookie/prefixes/url)";
  }
  EXPECT_EQ(sim::fingerprint_log(daemon_log.entries()),
            sim::fingerprint_log(in_process_log.entries()));

  // --- client-observable behaviour ----------------------------------------
  EXPECT_EQ(networked_metrics.lookups, in_process_metrics.lookups);
  EXPECT_EQ(networked_metrics.malicious_verdicts,
            in_process_metrics.malicious_verdicts);
  EXPECT_EQ(networked_metrics.local_hit_lookups,
            in_process_metrics.local_hit_lookups);
  EXPECT_EQ(networked_metrics.dispatched_lookups,
            in_process_metrics.dispatched_lookups);
  EXPECT_EQ(networked_population.full_hash_requests,
            in_process_population.full_hash_requests);
  EXPECT_EQ(networked_population.cache_answers,
            in_process_population.cache_answers);
  EXPECT_EQ(networked_population.malicious_verdicts,
            in_process_population.malicious_verdicts);
  EXPECT_EQ(networked_population.updates_attempted,
            in_process_population.updates_attempted);
  EXPECT_EQ(networked_population.updates_failed, 0u);

  // --- wire-byte totals: payload-only accounting means the envelope is
  // invisible to every counter ---------------------------------------------
  EXPECT_WIRE_EQ(full_hash_requests);
  EXPECT_WIRE_EQ(update_requests);
  EXPECT_WIRE_EQ(v4_update_requests);
  EXPECT_WIRE_EQ(v1_requests);
  EXPECT_WIRE_EQ(bytes_up);
  EXPECT_WIRE_EQ(bytes_down);
  EXPECT_WIRE_EQ(update_bytes_up);
  EXPECT_WIRE_EQ(update_bytes_down);

  // The daemon's own totals must agree with what the fleet sent.
  const sb::TransportStats& daemon_wire = harness.daemon.transport_stats();
  EXPECT_EQ(daemon_wire.bytes_up, in_process_wire.bytes_up);
  EXPECT_EQ(daemon_wire.bytes_down, in_process_wire.bytes_down);
  EXPECT_EQ(daemon_wire.full_hash_requests,
            in_process_wire.full_hash_requests);
  EXPECT_EQ(daemon_wire.update_requests, in_process_wire.update_requests);
  EXPECT_EQ(daemon_wire.v4_update_requests,
            in_process_wire.v4_update_requests);

  // --- per-channel obs byte counters (latency histograms are wall-clock
  // and necessarily differ; requests/bytes are deterministic) --------------
  for (std::size_t c = 0; c < obs::kChannelCount; ++c) {
    const obs::ChannelStats& networked = networked_channels.channels[c];
    const obs::ChannelStats& reference = in_process_channels.channels[c];
    EXPECT_EQ(networked.request_bytes.count(), reference.request_bytes.count())
        << "channel " << c;
    EXPECT_EQ(networked.request_bytes.sum(), reference.request_bytes.sum())
        << "channel " << c;
    EXPECT_EQ(networked.response_bytes.sum(), reference.response_bytes.sum())
        << "channel " << c;
  }

  // Fan-out actually happened: many clients at the same state token were
  // served from one encoding.
  EXPECT_GT(server_engine.server().update_encode_cache_hits(), 0u);
}

TEST(NetEquivalenceTest, V1FleetMatchesInProcessOverTcp) {
  // The v1 clear-URL channel, over TCP loopback with an ephemeral port --
  // URL strings survive the socket byte-identically and the daemon logs
  // them at the client's tick.
  sim::SimConfig config = small_config();
  config.num_users = 40;
  config.ticks = 20;
  config.protocol = sb::ProtocolVersion::kV1Lookup;
  config.mix_fraction = 0.0;

  sim::InMemorySink in_process_log;
  sim::SimMetrics in_process_metrics;
  sb::TransportStats in_process_wire;
  {
    sim::Engine engine(config);
    engine.attach_sink(&in_process_log, /*retain_in_memory=*/false);
    engine.run();
    in_process_metrics = engine.metrics();
    in_process_wire = engine.transport_stats();
  }

  sim::SimConfig server_config = config;
  server_config.num_users = 0;
  server_config.collect_metrics = false;
  sim::Engine server_engine(server_config);
  sim::InMemorySink daemon_log;
  server_engine.attach_sink(&daemon_log, /*retain_in_memory=*/false);

  DaemonHarness harness(server_engine.server());
  harness.start("tcp:127.0.0.1:0");  // ephemeral port
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(harness.daemon.listen_endpoints().size(), 1u);
  const std::string endpoint = harness.daemon.listen_endpoints().front();
  EXPECT_NE(endpoint, "tcp:127.0.0.1:0");  // resolved, not literal

  sim::SimMetrics networked_metrics;
  sb::TransportStats networked_wire;
  {
    sim::SimConfig client_config = config;
    client_config.transport_factory = [&endpoint](std::size_t,
                                                  sb::SimClock& clock) {
      return std::make_unique<SocketTransport>(endpoint, clock);
    };
    sim::Engine engine(client_config);
    engine.run();
    networked_metrics = engine.metrics();
    networked_wire = engine.transport_stats();
  }
  harness.finish();

  ASSERT_EQ(networked_wire.failed_requests, 0u);
  EXPECT_EQ(networked_metrics.malicious_verdicts,
            in_process_metrics.malicious_verdicts);
  EXPECT_EQ(networked_wire.v1_requests, in_process_wire.v1_requests);
  EXPECT_EQ(networked_wire.bytes_up, in_process_wire.bytes_up);
  EXPECT_EQ(networked_wire.bytes_down, in_process_wire.bytes_down);
  ASSERT_EQ(daemon_log.entries().size(), in_process_log.entries().size());
  EXPECT_EQ(sim::fingerprint_log(daemon_log.entries()),
            sim::fingerprint_log(in_process_log.entries()));
}

}  // namespace
}  // namespace sbp::net
