// Simulation workloads: plain runs (end-to-end metrics), traced runs
// (per-layer metrics) and the fleet capture behind the daemon workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "sim/log_sink.hpp"
#include "suite.hpp"

namespace sbp::benchsuite {

namespace {

/// A plain run repeats whole episodes (construct + every tick) until its
/// time is up, and never runs fewer than this many: the per-tick best and
/// the setup median need several.
constexpr std::size_t kMinEpisodes = 5;

/// Bench-side spans of one traced episode. `parent` is the span the next
/// RPC belongs to: the setup span (1) during construction, tick span
/// 2 + t during step t. Written by the engine thread between parallel
/// phases only; the thread pool's batch hand-off orders it before the
/// workers' reads.
struct Tracer {
  std::uint64_t parent = 1;
  std::uint64_t setup_start_ns = 0;
  std::uint64_t setup_ns = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> steps;  // start, dur
  std::vector<std::vector<RpcSpan>> shard_spans;
};

using Capture = std::vector<std::vector<CaptureRecord>>;

struct Episode {
  double setup_s = 0.0;
  double run_s = 0.0;
  double rss_after_setup = 0.0;
  std::vector<double> step_us;
  sim::ScenarioGolden golden;
  sb::TransportStats wire;
  sim::SimMetrics metrics;
  std::size_t threads = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t encode_cache_hits = 0;
  std::optional<obs::Snapshot> obs;
};

std::uint64_t total_requests(const sb::TransportStats& wire) {
  return wire.full_hash_requests + wire.update_requests +
         wire.v4_update_requests + wire.v1_requests;
}

Episode run_episode(const sim::SimConfig& base, Tracer* tracer,
                    Capture* capture) {
  sim::SimConfig config = base;
  sb::Server* server = nullptr;
  if (tracer != nullptr || capture != nullptr) {
    const std::size_t shards = std::max<std::size_t>(1, config.num_shards);
    if (tracer != nullptr) {
      tracer->shard_spans.assign(shards, {});
      tracer->parent = 1;
      config.collect_metrics = true;
    }
    if (capture != nullptr) capture->assign(shards, {});
    // server_setup runs before build_population, so `server` is set before
    // the first transport is made.
    config.server_setup = [&server](sb::Server& s) { server = &s; };
    config.transport_factory = [&server, tracer, capture](
                                   std::size_t shard, sb::SimClock& clock) {
      return std::make_unique<BenchTransport>(
          *server, clock, tracer != nullptr ? &tracer->parent : nullptr,
          tracer != nullptr ? &tracer->shard_spans[shard] : nullptr,
          capture != nullptr ? &(*capture)[shard] : nullptr);
    };
  }

  Episode episode;
  const std::uint64_t setup_start = obs::now_ns();
  sim::Engine engine(std::move(config));
  const std::uint64_t setup_ns = obs::now_ns() - setup_start;
  episode.setup_s = static_cast<double>(setup_ns) / 1e9;
  episode.rss_after_setup = current_rss_bytes();
  episode.threads = engine.num_threads();
  if (tracer != nullptr) {
    tracer->setup_start_ns = setup_start;
    tracer->setup_ns = setup_ns;
  }

  sim::CountingSink sink;
  engine.attach_sink(&sink, /*retain_in_memory=*/false);
  episode.step_us.reserve(engine.config().ticks);
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t run_start = obs::now_ns();
  for (std::uint64_t tick = 0;; ++tick) {
    if (tracer != nullptr) tracer->parent = 2 + tick;
    const std::uint64_t start = obs::now_ns();
    if (!engine.step()) break;
    const std::uint64_t ns = obs::now_ns() - start;
    episode.step_us.push_back(static_cast<double>(ns) / 1e3);
    if (tracer != nullptr) tracer->steps.emplace_back(start, ns);
  }
  episode.run_s = static_cast<double>(obs::now_ns() - run_start) / 1e9;
  episode.run_allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;

  episode.metrics = engine.metrics();
  episode.wire = engine.transport_stats();
  episode.golden.fingerprint = sink.fingerprint();
  episode.golden.entries = sink.entries();
  episode.golden.prefixes = sink.prefixes();
  episode.golden.multi_prefix_entries = sink.multi_prefix_entries();
  episode.golden.lookups = episode.metrics.lookups;
  episode.golden.wire_bytes_up = episode.wire.bytes_up;
  episode.golden.wire_bytes_down = episode.wire.bytes_down;
  episode.encode_cache_hits = engine.server().update_encode_cache_hits();
  if (engine.metrics_enabled()) episode.obs = engine.obs_snapshot();
  return episode;
}

void count_requests(const Episode& episode, Result& result) {
  result.attempted += total_requests(episode.wire);
  result.failed += episode.wire.failed_requests;
}

/// Every episode of one seed must observe the same thing, bit for bit.
void check_same(const std::string& what, const Episode& reference,
                const Episode& episode, Result& result) {
  const auto diffs = sim::golden_diff(episode.golden, reference.golden);
  for (const std::string& diff : diffs) result.fail(what + ": " + diff);
  if (total_requests(episode.wire) != total_requests(reference.wire) ||
      episode.wire.update_bytes_down != reference.wire.update_bytes_down) {
    result.fail(what + ": wire request counts differ");
  }
}

double user_ticks(const sim::SimConfig& config) {
  return static_cast<double>(config.num_users) *
         static_cast<double>(config.ticks);
}

void write_spans(const std::string& path, const Tracer& tracer) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return;
  }
  const std::uint64_t origin = tracer.setup_start_ns;
  const auto us = [origin](std::uint64_t ns) {
    return static_cast<double>(ns - origin) / 1e3;
  };
  std::fprintf(out, "{\"traceEvents\": [\n");
  std::fprintf(out,
               "{\"name\": \"setup\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
               "\"ts\": 0, \"dur\": %.3f, \"args\": {\"id\": 1}}",
               static_cast<double>(tracer.setup_ns) / 1e3);
  for (std::size_t t = 0; t < tracer.steps.size(); ++t) {
    std::fprintf(out,
                 ",\n{\"name\": \"tick\", \"ph\": \"X\", \"pid\": 0, "
                 "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"tick\": %zu}}",
                 us(tracer.steps[t].first),
                 static_cast<double>(tracer.steps[t].second) / 1e3, t + 2, t);
  }
  for (std::size_t s = 0; s < tracer.shard_spans.size(); ++s) {
    for (const RpcSpan& span : tracer.shard_spans[s]) {
      const std::string name(obs::channel_name(span.channel));
      std::fprintf(out,
                   ",\n{\"name\": \"rpc.%s\", \"ph\": \"X\", \"pid\": 0, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"parent\": %llu, \"bytes_up\": %llu, "
                   "\"bytes_down\": %llu}}",
                   name.c_str(), s + 1, us(span.start_ns),
                   static_cast<double>(span.dur_ns) / 1e3,
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.bytes_up),
                   static_cast<unsigned long long>(span.bytes_down));
    }
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
}

bool write_trace(const std::string& path, const Capture& capture,
                 Result& result) {
  ReplayTrace trace;
  std::string error;
  if (!build_trace(capture, &trace, &error)) {
    result.fail("capture: " + error);
    return false;
  }
  const std::vector<std::uint8_t> bytes = encode_trace(trace);
  if (!sim::write_file(path, std::string(bytes.begin(), bytes.end()),
                       &error)) {
    result.fail("capture: " + error);
    return false;
  }
  std::fprintf(stderr, "capture: %zu requests, %zu distinct payloads -> %s\n",
               trace.sequence.size(), trace.requests.size(), path.c_str());
  return true;
}

void sim_plain(const Workload& workload, const Options& opts,
               Result& result) {
  const sim::SimConfig& config = workload.scenario.config;
  const auto start = Clock::now();
  std::vector<Episode> episodes;
  std::vector<double> episode_wall;
  // slowdowns[e] is read just before episode e, and once more at the end.
  std::vector<double> slowdowns;
  // After the minimum, start another episode only if it should end within
  // the run time: a run lasts about --seconds, not --seconds + an episode.
  while (episodes.size() < kMinEpisodes ||
         seconds_since(start) + median(episode_wall) <= opts.seconds) {
    const auto episode_start = Clock::now();
    slowdowns.push_back(host_slowdown());
    episodes.push_back(run_episode(config, nullptr, nullptr));
    episode_wall.push_back(seconds_since(episode_start));
    const Episode& episode = episodes.back();
    count_requests(episode, result);
    check_same("episode " + std::to_string(episodes.size()), episodes.front(),
               episode, result);
    std::fprintf(stderr, "episode %zu: setup %.3f s, run %.3f s (%zu threads)\n",
                 episodes.size(), episode.setup_s, episode.run_s,
                 episode.threads);
  }
  slowdowns.push_back(host_slowdown());
  check_golden(workload, episodes.front().golden, result);
  result.golden = episodes.front().golden;

  // Every episode of a seed does the same work at each tick, so each tick
  // is timed by its fastest episode, at the reference clock. A shared host
  // slows whole stretches of seconds at a time, by up to 1.8x; with many
  // short episodes some episode ran each tick outside such a stretch, so
  // the per-tick best is the program's own cost and repeats from run to
  // run where a median over episodes follows how much of the run the host
  // was busy. An episode is scaled by the faster of the clock readings
  // around it, so one that straddles a clock step is never flattered.
  std::vector<double> best_us(episodes.front().step_us.size(), HUGE_VAL);
  std::vector<double> timed_best_us = best_us;
  std::vector<double> setup;
  std::vector<double> timed_setup;
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    const Episode& episode = episodes[e];
    const double slowdown = std::min(slowdowns[e], slowdowns[e + 1]);
    for (std::size_t t = 0; t < best_us.size(); ++t) {
      best_us[t] = std::min(best_us[t], episode.step_us[t] / slowdown);
      timed_best_us[t] = std::min(timed_best_us[t], episode.step_us[t]);
    }
    setup.push_back(episode.setup_s / slowdowns[e]);
    timed_setup.push_back(episode.setup_s);
  }
  const auto throughput = [&config](const std::vector<double>& tick_us) {
    double total_us = 0.0;
    for (const double us : tick_us) total_us += us;
    return user_ticks(config) / (total_us / 1e6);
  };
  result.metric("throughput", throughput(best_us), "ops/s");
  result.metric("p50_us", median(best_us), "us");
  result.metric("setup_s", median(setup), "s");
  result.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  std::fprintf(stderr,
               "%zu episodes of %llu steps; host clock slowdown %.3f-%.3f; "
               "as timed: throughput %.0f ops/s, p50 %.1f us, setup %.4f s\n",
               episodes.size(), static_cast<unsigned long long>(config.ticks),
               *std::min_element(slowdowns.begin(), slowdowns.end()),
               *std::max_element(slowdowns.begin(), slowdowns.end()),
               throughput(timed_best_us), median(timed_best_us),
               median(timed_setup));
}

/// Memory probe, plain / traced / plain episodes, per-layer metrics from
/// the traced one, then the layer pass. With opts.capture_out set, the
/// plain episode's request stream becomes the replay trace and the traced
/// episode's stream must equal it byte for byte.
void sim_traced(const Workload& workload, const Options& opts,
                Result& result) {
  const sim::SimConfig& config = workload.scenario.config;
  const bool capturing = !opts.capture_out.empty();

  double zero_user_rss = 0.0;
  {
    sim::SimConfig zero = config;
    zero.num_users = 0;
    const sim::Engine engine(std::move(zero));
    zero_user_rss = current_rss_bytes();
  }
  Capture plain_capture;
  Capture traced_capture;
  const Episode plain = run_episode(config, nullptr,
                                    capturing ? &plain_capture : nullptr);
  Tracer tracer;
  g_count_allocs = true;
  const Episode traced = run_episode(config, &tracer,
                                     capturing ? &traced_capture : nullptr);
  g_count_allocs = false;
  const Episode warm = run_episode(config, nullptr, nullptr);

  for (const Episode* episode : {&plain, &traced, &warm}) {
    count_requests(*episode, result);
  }
  check_same("traced vs plain", plain, traced, result);
  check_same("second plain", plain, warm, result);
  check_golden(workload, plain.golden, result);
  result.golden = plain.golden;
  if (capturing) {
    ReplayTrace a;
    ReplayTrace b;
    std::string error;
    if (build_trace(plain_capture, &a, &error) &&
        build_trace(traced_capture, &b, &error) &&
        encode_trace(a) != encode_trace(b)) {
      result.fail("traced capture differs from the plain capture");
    }
    write_trace(opts.capture_out, plain_capture, result);
  }
  if (!opts.trace_out.empty()) write_spans(opts.trace_out, tracer);

  // Engine phases (shard CPU for plan/lookup/resync, wall for the rest).
  const obs::PhaseProfile& phases = traced.obs->phases;
  const auto phase_s = [&phases](obs::Phase phase) {
    return static_cast<double>(phases.stats(phase).total_ns) / 1e9;
  };
  const double plan = phase_s(obs::Phase::kPlan);
  const double lookup = phase_s(obs::Phase::kLookup);
  const double resync = phase_s(obs::Phase::kResync);
  const double epoch = phase_s(obs::Phase::kChurnEpoch);
  const double parallel = phase_s(obs::Phase::kParallelTick);
  const double drain = phase_s(obs::Phase::kLogDrain);
  const double wall = traced.run_s;
  const double shard_cpu = plan + lookup + resync;
  const double user_tick_count = user_ticks(config);
  const sim::SimMetrics& m = traced.metrics;
  const double cache_lookups =
      static_cast<double>(m.url_cache_hits + m.url_cache_misses);

  // Bench spans around the transport seam.
  double setup_rpc_ns = 0.0;
  double run_update_ns = 0.0;
  double update_ns = 0.0;
  double update_bytes = 0.0;
  double update_rpcs = 0.0;
  double full_hash_ns = 0.0;
  double full_hash_rpcs = 0.0;
  for (const auto& spans : tracer.shard_spans) {
    for (const RpcSpan& span : spans) {
      const bool setup = span.parent == 1;
      const auto ns = static_cast<double>(span.dur_ns);
      if (setup) setup_rpc_ns += ns;
      if (span.channel == obs::Channel::kV3Update ||
          span.channel == obs::Channel::kV4Update) {
        update_ns += ns;
        update_bytes += static_cast<double>(span.bytes_down);
        update_rpcs += 1.0;
        if (!setup) run_update_ns += ns;
      } else if (span.channel == obs::Channel::kFullHash) {
        full_hash_ns += ns;
        full_hash_rpcs += 1.0;
      }
    }
  }
  obs::Histogram serve;
  for (const obs::ChannelStats& channel : traced.obs->transport.channels) {
    serve.merge_from(channel.serve_ns);
  }
  std::vector<double> ticks_ms;
  for (const double us : traced.step_us) ticks_ms.push_back(us / 1e3);
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  // Every listed metric is non-zero on every workload. Re-sync and churn
  // figures are zero wherever the list does not churn, so they are printed
  // below instead; the update path is listed through update RPCs, which
  // include every user's initial sync.
  result.metric("sim.plan_s", plan, "s");
  result.metric("sim.lookup_s", lookup, "s");
  result.metric("sim.unexplained_share",
                ratio(wall - epoch - parallel - drain, wall), "fraction");
  result.metric("sim.parallel_efficiency",
                ratio(shard_cpu, static_cast<double>(traced.threads) * parallel),
                "fraction");
  result.metric("sim.tick_p50_ms", quantile(ticks_ms, 0.50), "ms");
  result.metric("sim.tick_p95_ms", quantile(ticks_ms, 0.95), "ms");
  result.metric("sim.url_cache_hit_ratio",
                ratio(static_cast<double>(m.url_cache_hits), cache_lookups),
                "fraction");
  result.metric("sim.allocs_per_user_tick",
                ratio(static_cast<double>(traced.run_allocs), user_tick_count),
                "count");
  result.metric("tail.p99_us",
                median({quantile(plain.step_us, 0.99),
                        quantile(warm.step_us, 0.99)}),
                "us");
  result.metric("sim.tracing_overhead", ratio(traced.run_s, warm.run_s) - 1.0,
                "fraction");
  result.metric("mem.bytes_per_user",
                ratio(plain.rss_after_setup - zero_user_rss,
                      static_cast<double>(config.num_users)),
                "B");
  result.metric("sb.setup_rpc_s", setup_rpc_ns / 1e9, "s");
  result.metric("sb.update_rpcs", update_rpcs, "count");
  result.metric("sb.update_rpc_us", ratio(update_ns, update_rpcs) / 1e3, "us");
  result.metric("sb.update_bytes_per_rpc", ratio(update_bytes, update_rpcs),
                "B");
  result.metric("sb.full_hash_rpcs", full_hash_rpcs, "count");
  result.metric("sb.full_hash_rpc_us", ratio(full_hash_ns, full_hash_rpcs) / 1e3,
                "us");
  result.metric("sb.encode_cache_hit_ratio",
                ratio(static_cast<double>(traced.encode_cache_hits),
                      update_rpcs),
                "fraction");
  result.metric("sb.serve_us_p50",
                static_cast<double>(serve.quantile(0.50)) / 1e3, "us");
  result.metric("sb.serve_us_p99",
                static_cast<double>(serve.quantile(0.99)) / 1e3, "us");

  std::fprintf(stderr,
               "traced: wall %.3f s (plain %.3f s), plan %.3f lookup %.3f "
               "resync %.3f epoch %.3f parallel_tick %.3f log_drain %.3f s\n",
               wall, warm.run_s, plan, lookup, resync, epoch, parallel, drain);
  std::fprintf(stderr,
               "re-sync: %.1f%% of shard CPU, churn epochs %.1f%% of wall, "
               "client self time %.1f%% of re-sync (outside the RPC)\n",
               ratio(resync, shard_cpu) * 100.0, ratio(epoch, wall) * 100.0,
               ratio(resync - run_update_ns / 1e9, resync) * 100.0);
  std::fprintf(stderr,
               "tracing overhead: %+.1f%% (traced wall / plain wall - 1)\n",
               (ratio(traced.run_s, warm.run_s) - 1.0) * 100.0);

  layer_pass(config, result);
}

}  // namespace

void run_sim(const Workload& workload, const Options& opts, Result& result) {
  if (opts.traced) {
    sim_traced(workload, opts, result);
    return;
  }
  if (opts.capture_out.empty()) {
    sim_plain(workload, opts, result);
    return;
  }
  // A plain capture: one episode, recorded; no metrics of its own.
  Capture capture;
  const Episode episode =
      run_episode(workload.scenario.config, nullptr, &capture);
  count_requests(episode, result);
  check_golden(workload, episode.golden, result);
  result.golden = episode.golden;
  write_trace(opts.capture_out, capture, result);
}

}  // namespace sbp::benchsuite
