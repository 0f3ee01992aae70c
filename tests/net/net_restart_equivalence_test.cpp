// THE restart-equivalence contract, as a tier-1 test (docs/persistence.md):
// a fleet whose server is checkpointed, destroyed and restored mid-run
// must end bit-identical to a fleet served by an uninterrupted server --
//
//   * the query-log fingerprint and counts continue across the restart
//     (the restored CountingSink picks up exactly where the interrupted
//     accumulator stopped),
//   * client-side TransportStats are equal FIELD-WISE,
//   * per-channel obs byte counters are equal,
//   * the final server serving state is a byte-identical snapshot.
//
// Two harnesses: an in-process churned mixed v3/v4 fleet checkpointed at
// a churn-epoch boundary (run at thread counts 1/2/8 -- the TSan CI leg
// runs this), and the net_equivalence-style socket fleet whose daemon's
// poll loop is paused, its server state clobbered and restored from the
// snapshot, then resumed on the SAME connections -- the closest one
// process gets to kill -9 + sbserved --restore.
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
#include "sim/snapshot_io.hpp"
#include "storage/snapshot.hpp"

namespace sbp::net {
namespace {

/// The net_equivalence fleet plus live churn: epochs at ticks 10/20/30
/// reshape every list mid-run, so the checkpoint carries sealed add+sub
/// chunks, advanced chunk sequences and a mid-epoch open chunk.
sim::SimConfig churned_config() {
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
  config.churn.epoch_ticks = 10;
  return config;
}

/// Overwrites recognizable pieces of the serving state so a passing test
/// proves the snapshot -- not leftover state -- produced the answers.
void clobber_server(sb::Server& server) {
  server.create_list("junk-list");
  server.add_orphan_prefix("junk-list", 0x12345678u);
  server.seal_chunk("junk-list");
  server.set_minimum_wait(999);
}

struct UninterruptedRun {
  sim::CountingSink sink;
  sim::SimMetrics metrics;
  sb::ClientMetrics population;
  sb::TransportStats wire;
  obs::TransportObs channels;
  std::vector<std::uint8_t> final_server_bytes;
};

UninterruptedRun reference_run(const sim::SimConfig& config) {
  UninterruptedRun out;
  sim::Engine engine(config);
  engine.attach_sink(&out.sink, /*retain_in_memory=*/false);
  engine.run();
  out.metrics = engine.metrics();
  out.population = engine.population_metrics();
  out.wire = engine.transport_stats();
  if (config.collect_metrics) {
    out.channels.merge_from(engine.obs_snapshot().transport);
  }
  out.final_server_bytes = engine.server().checkpoint_bytes();
  return out;
}

#define EXPECT_WIRE_EQ(field)                                            \
  EXPECT_EQ(restarted_wire.field, reference.wire.field)                  \
      << "TransportStats." #field " diverged across the restart"

class RestartEquivalenceTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(RestartEquivalenceTest, InProcessRestartAtEpochBoundaryIsInvisible) {
  sim::SimConfig config = churned_config();
  config.num_threads = GetParam();
  const UninterruptedRun reference = reference_run(config);
  ASSERT_GT(reference.metrics.churn_events, 0u);

  // --- the interrupted twin ----------------------------------------------
  sim::Engine engine(config);
  sim::CountingSink first_life;
  engine.attach_sink(&first_life, /*retain_in_memory=*/false);

  // Step to the first churn-epoch boundary, then checkpoint: every chunk
  // the epoch touched is sealed and the snapshot is mid-open-chunk for
  // whatever accumulated since.
  storage::MemoryBackend backend;
  bool checkpointed = false;
  std::string error;
  while (engine.step()) {
    if (!checkpointed && engine.churn_epochs() >= 1) {
      ASSERT_TRUE(sim::checkpoint_engine(engine, &first_life, backend,
                                         &error))
          << error;
      checkpointed = true;
      break;
    }
  }
  ASSERT_TRUE(checkpointed) << "no churn epoch fired before the run ended";
  const std::uint64_t checkpoint_tick = engine.current_tick();

  // "Crash": wreck the serving state, then restore from the snapshot into
  // a FRESH accumulator (the first one died with the process).
  clobber_server(engine.server());
  sim::CountingSink second_life;
  sim::RestoreInfo info;
  ASSERT_TRUE(
      sim::restore_engine(engine, &second_life, backend, &info, &error))
      << error;
  EXPECT_TRUE(info.had_engine_meta);
  EXPECT_TRUE(info.had_sink_state);
  EXPECT_EQ(info.meta.tick, checkpoint_tick);
  EXPECT_EQ(info.meta.churn_epochs, 1u);
  EXPECT_EQ(second_life.state(), first_life.state());
  // checkpoint -> restore -> checkpoint is a byte fixpoint mid-run too.
  const std::vector<std::uint8_t> original_snapshot = backend.bytes();
  ASSERT_TRUE(
      sim::checkpoint_engine(engine, &second_life, backend, &error))
      << error;
  EXPECT_EQ(backend.bytes(), original_snapshot);
  engine.attach_sink(&second_life, /*retain_in_memory=*/false);

  // Resume the fleet to the end.
  while (engine.step()) {
  }

  // --- equivalence ---------------------------------------------------------
  EXPECT_EQ(second_life.fingerprint(), reference.sink.fingerprint());
  EXPECT_EQ(second_life.entries(), reference.sink.entries());
  EXPECT_EQ(second_life.prefixes(), reference.sink.prefixes());
  EXPECT_EQ(second_life.multi_prefix_entries(),
            reference.sink.multi_prefix_entries());

  const sb::TransportStats restarted_wire = engine.transport_stats();
  EXPECT_WIRE_EQ(full_hash_requests);
  EXPECT_WIRE_EQ(update_requests);
  EXPECT_WIRE_EQ(v4_update_requests);
  EXPECT_WIRE_EQ(v1_requests);
  EXPECT_WIRE_EQ(failed_requests);
  EXPECT_WIRE_EQ(bytes_up);
  EXPECT_WIRE_EQ(bytes_down);
  EXPECT_WIRE_EQ(update_bytes_up);
  EXPECT_WIRE_EQ(update_bytes_down);

  const sim::SimMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.lookups, reference.metrics.lookups);
  EXPECT_EQ(metrics.malicious_verdicts,
            reference.metrics.malicious_verdicts);
  EXPECT_EQ(metrics.churn_events, reference.metrics.churn_events);
  EXPECT_EQ(metrics.churn_adds, reference.metrics.churn_adds);
  EXPECT_EQ(metrics.churn_removes, reference.metrics.churn_removes);

  obs::TransportObs channels;
  channels.merge_from(engine.obs_snapshot().transport);
  for (std::size_t c = 0; c < obs::kChannelCount; ++c) {
    EXPECT_EQ(channels.channels[c].request_bytes.count(),
              reference.channels.channels[c].request_bytes.count())
        << "channel " << c;
    EXPECT_EQ(channels.channels[c].request_bytes.sum(),
              reference.channels.channels[c].request_bytes.sum())
        << "channel " << c;
    EXPECT_EQ(channels.channels[c].response_bytes.sum(),
              reference.channels.channels[c].response_bytes.sum())
        << "channel " << c;
  }

  // The endgame serving state is byte-identical to never having crashed.
  EXPECT_EQ(engine.server().checkpoint_bytes(),
            reference.final_server_bytes);
}

INSTANTIATE_TEST_SUITE_P(Threads, RestartEquivalenceTest,
                         ::testing::Values(1, 2, 8));

// ---------------------------------------------------------------------------
// The socket variant: sbserved's restart path on live connections.
// ---------------------------------------------------------------------------

std::string unique_socket_path() {
  return "/tmp/sbp_restart_eq_" + std::to_string(::getpid()) + ".sock";
}

/// net_equivalence's DaemonHarness plus pause()/resume(): the poll thread
/// stops WITHOUT Daemon::shutdown(), so accepted connections survive the
/// server-state swap exactly like fds survive an exec-less in-place
/// restart.
struct RestartableHarness {
  explicit RestartableHarness(sb::Server& server) : daemon(server) {}

  void start(const std::string& endpoint) {
    std::string error;
    ASSERT_TRUE(daemon.listen(endpoint, &error)) << error;
    resume();
  }

  void pause() {
    if (thread.joinable()) {
      stop.store(true, std::memory_order_relaxed);
      thread.join();
    }
  }

  void resume() {
    stop.store(false, std::memory_order_relaxed);
    thread = std::thread([this] {
      while (!stop.load(std::memory_order_relaxed)) {
        daemon.poll_once(/*timeout_ms=*/20);
      }
    });
  }

  void finish() {
    pause();
    daemon.shutdown(/*drain_ms=*/1000);
  }

  Daemon daemon;
  std::atomic<bool> stop{false};
  std::thread thread;
};

TEST(SocketRestartEquivalenceTest, SocketFleetSurvivesServerRestore) {
  // The daemon path never ticks the zero-user server engine, so lists are
  // frozen (sbserved accepts churn scenarios only under --restore); drop
  // churn and compare against the plain in-process run.
  sim::SimConfig config = churned_config();
  config.churn.epoch_ticks = 0;
  const UninterruptedRun reference = reference_run(config);

  sim::SimConfig server_config = config;
  server_config.num_users = 0;
  server_config.collect_metrics = false;
  sim::Engine server_engine(server_config);
  sim::CountingSink first_life;
  server_engine.attach_sink(&first_life, /*retain_in_memory=*/false);

  RestartableHarness harness(server_engine.server());
  const std::string endpoint = "unix:" + unique_socket_path();
  harness.start(endpoint);
  if (::testing::Test::HasFatalFailure()) return;

  sim::SimConfig client_config = config;
  client_config.transport_factory = [&endpoint](std::size_t,
                                                sb::SimClock& clock) {
    return std::make_unique<SocketTransport>(endpoint, clock);
  };
  sim::Engine fleet(client_config);

  // First half of the run, then freeze the daemon between ticks (every
  // request is synchronous, so the wire is quiet while the fleet is not
  // stepping).
  for (std::uint64_t tick = 0; tick < config.ticks / 2; ++tick) {
    ASSERT_TRUE(fleet.step());
  }
  harness.pause();

  storage::MemoryBackend backend;
  std::string error;
  ASSERT_TRUE(sim::checkpoint_engine(server_engine, &first_life, backend,
                                     &error))
      << error;

  // "kill -9": wreck the state, restore from the snapshot into a fresh
  // accumulator, rewire, resume polling on the surviving connections.
  clobber_server(server_engine.server());
  sim::CountingSink second_life;
  sim::RestoreInfo info;
  ASSERT_TRUE(sim::restore_engine(server_engine, &second_life, backend,
                                  &info, &error))
      << error;
  EXPECT_TRUE(info.had_sink_state);
  EXPECT_EQ(second_life.state(), first_life.state());
  server_engine.attach_sink(&second_life, /*retain_in_memory=*/false);
  harness.resume();

  while (fleet.step()) {
  }
  harness.finish();
  std::remove(unique_socket_path().c_str());

  const sb::TransportStats restarted_wire = fleet.transport_stats();
  ASSERT_EQ(restarted_wire.failed_requests, 0u);
  EXPECT_EQ(harness.daemon.stats().decode_errors, 0u);

  // The daemon-side log continues the interrupted fingerprint exactly.
  EXPECT_EQ(second_life.fingerprint(), reference.sink.fingerprint());
  EXPECT_EQ(second_life.entries(), reference.sink.entries());
  EXPECT_EQ(second_life.prefixes(), reference.sink.prefixes());

  EXPECT_WIRE_EQ(full_hash_requests);
  EXPECT_WIRE_EQ(update_requests);
  EXPECT_WIRE_EQ(v4_update_requests);
  EXPECT_WIRE_EQ(bytes_up);
  EXPECT_WIRE_EQ(bytes_down);
  EXPECT_WIRE_EQ(update_bytes_up);
  EXPECT_WIRE_EQ(update_bytes_down);

  obs::TransportObs channels;
  channels.merge_from(fleet.obs_snapshot().transport);
  for (std::size_t c = 0; c < obs::kChannelCount; ++c) {
    EXPECT_EQ(channels.channels[c].request_bytes.sum(),
              reference.channels.channels[c].request_bytes.sum())
        << "channel " << c;
    EXPECT_EQ(channels.channels[c].response_bytes.sum(),
              reference.channels.channels[c].response_bytes.sum())
        << "channel " << c;
  }

  EXPECT_EQ(server_engine.server().checkpoint_bytes(),
            reference.final_server_bytes);
}

}  // namespace
}  // namespace sbp::net
