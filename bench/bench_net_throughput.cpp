// Networked-transport throughput: the full sbserved request path -- client
// frame encode, envelope framing, a real Unix-domain socket, the daemon's
// poll loop, server work, and the response trip back -- measured against
// the zero-latency in-process transport running the IDENTICAL scenario.
//
// One process, two legs:
//
//   1. the reference in-process run (the cost of the simulation itself);
//   2. the same client fleet with every per-user transport replaced by a
//      net::SocketTransport talking to a fresh net::Daemon on a background
//      thread over a Unix socket in /tmp -- bench::kSamples (5) times.
//
// Every socket sample must match the in-process leg under sim::run_diff
// (golden block plus every engine, population and wire counter, with the
// daemon's query log standing in for the fleet's) -- the equivalence
// contract of docs/networking.md at bench scale; any divergence names the
// field and exits 2, like the determinism gate in bench_sim_throughput.
// The JSON artifact (BENCH_net.json, --out overrides) reports the socket
// sample with the median run_seconds: request throughput, per-channel
// client-observed round-trip latency percentiles, and byte counters;
// tools/compare_bench.py gates requests_per_sec and p99 latency against
// bench/baselines/BENCH_net.json.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.hpp"
#include "net/daemon.hpp"
#include "net/socket.hpp"
#include "net/socket_transport.hpp"
#include "obs/phase.hpp"
#include "sim/engine.hpp"
#include "sim/log_sink.hpp"
#include "sim/scenario/runner.hpp"

namespace {

namespace json = sbp::util::json;
using sbp::bench::rounded;
using sbp::sim::ScenarioRunResult;

sbp::sim::Scenario bench_scenario(std::size_t users, std::uint64_t ticks) {
  sbp::sim::Scenario scenario;
  scenario.name = "net-throughput";
  sbp::sim::SimConfig& config = scenario.config;
  config.num_users = users;
  config.ticks = ticks;
  config.num_shards = 8;
  config.num_threads = 1;  // determinism leg; socket transport is serial
  config.seed = 2016;
  config.corpus.num_hosts = 4000;
  config.corpus.seed = 2016;
  config.corpus.max_pages = 300;
  config.blacklist.page_fraction = 0.004;
  config.blacklist.site_fraction = 0.0008;
  config.blacklist.max_entries = 1024;
  config.mix_fraction = 0.5;  // both update protocols on the wire
  config.full_hash_ttl = 16;
  config.collect_metrics = true;  // per-channel latency histograms
  return scenario;
}

/// One socket-leg run plus the daemon-side figures the artifact reports.
struct SocketSample {
  ScenarioRunResult run;
  std::uint64_t frames_served = 0;
  std::uint64_t update_encode_cache_hits = 0;
};

/// Runs the fleet against a fresh daemon (serving a zero-user engine
/// seeded from the same config) on a background thread. Update serving
/// mutates server state, so each sample gets its own. The daemon's query
/// log goes into the run's log_* fields: the fleet's local server never
/// sees a query.
SocketSample socket_sample(const sbp::sim::Scenario& scenario) {
  sbp::sim::SimConfig server_config = scenario.config;
  server_config.num_users = 0;
  server_config.collect_metrics = false;
  sbp::sim::Engine server_engine(server_config);
  sbp::sim::CountingSink daemon_log;
  server_engine.attach_sink(&daemon_log, /*retain_in_memory=*/false);

  sbp::net::Daemon daemon(server_engine.server());
  const std::string socket_path =
      "/tmp/sbp_bench_net_" + std::to_string(::getpid()) + ".sock";
  const std::string endpoint = "unix:" + socket_path;
  std::string error;
  if (!daemon.listen(endpoint, &error)) {
    std::fprintf(stderr, "listen failed: %s\n", error.c_str());
    std::exit(1);
  }
  std::atomic<bool> stop{false};
  std::thread daemon_thread([&] {
    while (!stop.load(std::memory_order_relaxed)) daemon.poll_once(20);
  });

  sbp::sim::Scenario client = scenario;
  client.config.transport_factory = [&endpoint](std::size_t,
                                                sbp::sb::SimClock& clock) {
    return std::make_unique<sbp::net::SocketTransport>(endpoint, clock);
  };
  SocketSample sample{sbp::sim::run_scenario(client)};

  stop.store(true, std::memory_order_relaxed);
  daemon_thread.join();
  daemon.shutdown(/*drain_ms=*/1000);
  std::remove(socket_path.c_str());

  sample.run.log_entries = daemon_log.entries();
  sample.run.log_prefixes = daemon_log.prefixes();
  sample.run.log_multi_prefix_entries = daemon_log.multi_prefix_entries();
  sample.run.log_fingerprint = daemon_log.fingerprint();
  sample.frames_served = daemon.stats().frames_served;
  sample.update_encode_cache_hits =
      server_engine.server().update_encode_cache_hits();
  return sample;
}

std::uint64_t total_requests(const sbp::sb::TransportStats& wire) {
  return wire.full_hash_requests + wire.update_requests +
         wire.v4_update_requests + wire.v1_requests;
}

}  // namespace

int main(int argc, char** argv) {
  sbp::net::ignore_sigpipe();
  sbp::bench::Args args(argc, argv);
  const std::size_t users = args.size_flag("--users", 2000);
  const std::uint64_t ticks = args.u64_flag("--ticks", 60);
  const std::string out_path = args.string_flag("--out", "BENCH_net.json");
  if (!args.finish()) return 1;

  sbp::bench::header("net_throughput",
                     "client fleet -> Unix socket -> sbserved event loop, "
                     "vs the in-process transport");
  std::printf("population: %zu users x %llu ticks, %zu socket samples\n",
              users, static_cast<unsigned long long>(ticks),
              sbp::bench::kSamples);

  const sbp::sim::Scenario scenario = bench_scenario(users, ticks);

  // Leg 1: in-process reference.
  const ScenarioRunResult in_process = sbp::sim::run_scenario(scenario);
  std::printf("in-process: %.3f s, %llu requests, fingerprint 0x%016llx\n",
              in_process.run_seconds,
              static_cast<unsigned long long>(total_requests(in_process.wire)),
              static_cast<unsigned long long>(in_process.log_fingerprint));

  // Leg 2: the fleet over sockets, every sample held to leg 1.
  bool equivalent = true;
  const SocketSample socket = sbp::bench::median_sample([&] {
    SocketSample sample = socket_sample(scenario);
    const std::vector<std::string> diffs =
        sbp::sim::run_diff(sample.run, in_process);
    if (!diffs.empty()) {
      equivalent = false;
      std::fprintf(stderr,
                   "EQUIVALENCE FAILURE: socket run diverged from "
                   "in-process:\n");
      for (const std::string& diff : diffs) {
        std::fprintf(stderr, "  %s\n", diff.c_str());
      }
    }
    return sample;
  });

  const ScenarioRunResult& run = socket.run;
  const std::uint64_t requests = total_requests(run.wire);
  const double requests_per_sec =
      static_cast<double>(requests) / run.run_seconds;
  std::printf("socket:     %.3f s (median), %llu requests, %.0f req/s "
              "(daemon fingerprint 0x%016llx)\n",
              run.run_seconds, static_cast<unsigned long long>(requests),
              requests_per_sec,
              static_cast<unsigned long long>(run.log_fingerprint));

  json::Value doc{json::Object{}};
  doc.set("experiment", "net_throughput");
  doc.set("transport", "unix");
  doc.set("users", std::uint64_t{users});
  doc.set("ticks", ticks);
  doc.set("seed", scenario.config.seed);
  doc.set("samples", std::uint64_t{sbp::bench::kSamples});
  doc.set("run_seconds", rounded(run.run_seconds, 3));
  doc.set("in_process_run_seconds", rounded(in_process.run_seconds, 3));
  doc.set("socket_slowdown",
          rounded(in_process.run_seconds > 0.0
                      ? run.run_seconds / in_process.run_seconds
                      : 0.0,
                  2));
  doc.set("requests", requests);
  doc.set("requests_per_sec", rounded(requests_per_sec, 0));
  doc.set("failed_requests", run.wire.failed_requests);
  doc.set("wire_bytes_up", run.wire.bytes_up);
  doc.set("wire_bytes_down", run.wire.bytes_down);
  doc.set("frames_served", socket.frames_served);
  doc.set("update_encode_cache_hits", socket.update_encode_cache_hits);
  doc.set("log_fingerprint", json::hex_u64(run.log_fingerprint));
  json::Value latency{json::Object{}};
  for (std::size_t c = 0; c < sbp::obs::kChannelCount; ++c) {
    const sbp::obs::ChannelStats& stats = run.obs->transport.channels[c];
    const std::uint64_t requests = stats.request_bytes.count();
    if (requests == 0) continue;
    const std::string_view channel =
        sbp::obs::channel_name(static_cast<sbp::obs::Channel>(c));
    json::Value entry{json::Object{}};
    entry.set("requests", requests);
    entry.set("p50_ns", stats.serve_ns.quantile(0.50));
    entry.set("p90_ns", stats.serve_ns.quantile(0.90));
    entry.set("p99_ns", stats.serve_ns.quantile(0.99));
    latency.set(channel, std::move(entry));
    std::printf("latency/%-10.*s p50=%lluus p99=%lluus over %llu requests\n",
                static_cast<int>(channel.size()), channel.data(),
                static_cast<unsigned long long>(
                    stats.serve_ns.quantile(0.50) / 1000),
                static_cast<unsigned long long>(
                    stats.serve_ns.quantile(0.99) / 1000),
                static_cast<unsigned long long>(requests));
  }
  doc.set("latency", std::move(latency));
  doc.set("equivalent", equivalent);

  if (!sbp::bench::write_json(doc, out_path)) return 1;
  return equivalent ? 0 : 2;
}
