// Simulation engine throughput: how fast can the full SB stack serve a
// large synthetic population -- and how does it scale across threads?
//
// Runs a >= 100k-user, >= 50-tick simulation (per-user ProtocolClient
// instances against the shared sb::Server, power-law traffic, churning
// lists) once per thread count in the sweep (default 1,2,4,8), with the
// query log streamed through a constant-memory CountingSink -- the server
// retains nothing -- and reports throughput as JSON on stdout and into
// BENCH_sim.json (--out PATH overrides; --users / --ticks / --threads
// rescale).
//
// The sweep doubles as the large-scale determinism gate: every run must
// match the first single-thread run under sim::run_diff (golden block plus
// every counter of SimMetrics, ClientMetrics and TransportStats); any
// divergence names the field and exits 2 (the parallel runtime's
// acceptance criterion, also enforced at unit scale by
// tests/sim/engine_parallel_test.cpp). The JSON includes per-thread-count
// results plus the speedup over the 1-thread run, so scaling PRs can see
// the trajectory per commit. Top-level fields describe the single-thread
// baseline, keeping the schema of earlier PRs.
//
// Each thread count runs bench::kSamples (5) times plain, and the sample
// with the median run_seconds is reported with all of its fields -- one
// cold sample swings too far for the CI throughput gate. One more run has
// the src/obs profiling layer on: it must match too (metrics cannot
// perturb the engine) and contributes the per-phase wall-time breakdown
// plus the measured metrics overhead to the sweep entry. Overhead is
// reported, not gated: at bench scale it sits inside run-to-run noise;
// the <3% contract is what the numbers document.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "crypto/sha256.hpp"
#include "obs/phase.hpp"
#include "sim/engine.hpp"
#include "sim/log_sink.hpp"
#include "sim/scenario/runner.hpp"

// Heap-traffic instrumentation: replacing the global allocation functions
// in this one TU counts every operator-new across the whole binary, which
// is how the sweep reports allocations/tick -- the arena/scratch-buffer
// work's regression gate. Relaxed atomic: the count is a sum, so it is
// exact regardless of thread interleaving.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace json = sbp::util::json;
using sbp::bench::rounded;
using sbp::sim::ScenarioRunResult;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

sbp::sim::SimConfig bench_config(std::size_t users, std::uint64_t ticks,
                                 std::size_t threads) {
  sbp::sim::SimConfig config;
  config.num_users = users;
  config.ticks = ticks;
  config.num_shards = 16;
  config.num_threads = threads;
  config.seed = 2016;
  config.corpus.num_hosts = 20000;
  config.corpus.seed = 2016;
  config.corpus.max_pages = 300;
  config.blacklist.page_fraction = 0.004;
  config.blacklist.site_fraction = 0.0008;
  config.blacklist.max_entries = 1024;
  config.churn.epoch_ticks = 10;
  config.churn.add_rate = 0.02;
  config.churn.remove_rate = 0.01;
  config.churn.minimum_wait_ticks = 20;
  return config;
}

/// One run of the population: the engine's observables (sim::read_run)
/// with engine construction and engine.run() timed apart, plus the global
/// operator-new calls made during engine.run() alone.
struct Sample {
  ScenarioRunResult run;
  std::uint64_t allocations = 0;
};

Sample take_sample(std::size_t users, std::uint64_t ticks,
                   std::size_t threads, bool collect_metrics) {
  const auto setup_start = Clock::now();
  sbp::sim::SimConfig config = bench_config(users, ticks, threads);
  config.collect_metrics = collect_metrics;
  sbp::sim::Engine engine(std::move(config));
  const double setup_seconds = seconds_since(setup_start);

  sbp::sim::CountingSink log;
  engine.attach_sink(&log, /*retain_in_memory=*/false);

  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto run_start = Clock::now();
  engine.run();
  const double run_seconds = seconds_since(run_start);
  const std::uint64_t allocations =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;

  Sample sample{sbp::sim::read_run(engine, log), allocations};
  sample.run.setup_seconds = setup_seconds;
  sample.run.run_seconds = run_seconds;
  return sample;
}

double user_ticks_per_sec(const ScenarioRunResult& run, std::size_t users) {
  return static_cast<double>(users) *
         static_cast<double>(run.metrics.ticks_run) / run.run_seconds;
}

double lookups_per_sec(const ScenarioRunResult& run) {
  return static_cast<double>(run.metrics.lookups) / run.run_seconds;
}

double allocations_per_tick(const Sample& sample) {
  const std::uint64_t ticks = sample.run.metrics.ticks_run;
  return ticks > 0 ? static_cast<double>(sample.allocations) /
                         static_cast<double>(ticks)
                   : 0.0;
}

/// One thread_sweep entry: the median plain sample's numbers plus the
/// metrics-on companion's overhead and per-phase wall-time breakdown.
json::Value sweep_entry(std::size_t threads, const Sample& median,
                        const Sample& with_metrics, const Sample& base,
                        std::size_t users, double metrics_overhead) {
  json::Value entry{json::Object{}};
  entry.set("threads", std::uint64_t{threads});
  entry.set("threads_used", std::uint64_t{median.run.threads_used});
  entry.set("run_seconds", rounded(median.run.run_seconds, 3));
  entry.set("user_ticks_per_sec",
            rounded(user_ticks_per_sec(median.run, users), 0));
  entry.set("lookups_per_sec", rounded(lookups_per_sec(median.run), 0));
  entry.set("speedup",
            rounded(base.run.run_seconds / median.run.run_seconds, 2));
  entry.set("log_fingerprint", json::hex_u64(median.run.log_fingerprint));
  entry.set("allocations", median.allocations);
  entry.set("allocations_per_tick", rounded(allocations_per_tick(median), 0));
  entry.set("metrics_run_seconds",
            rounded(with_metrics.run.run_seconds, 3));
  entry.set("metrics_overhead", rounded(metrics_overhead, 3));
  json::Value phases{json::Object{}};
  for (std::size_t p = 0; p < sbp::obs::kPhaseCount; ++p) {
    const auto phase = static_cast<sbp::obs::Phase>(p);
    phases.set(std::string(sbp::obs::phase_name(phase)) + "_ns",
               with_metrics.run.obs->phases.stats(phase).total_ns);
  }
  entry.set("phases", std::move(phases));
  return entry;
}

/// The single-thread baseline's top-level fields (the schema earlier PRs
/// track), followed by the sweep.
json::Value artifact(const Sample& base, std::size_t users,
                     json::Array sweep, double max_speedup,
                     double metrics_overhead_max, bool deterministic) {
  const ScenarioRunResult& run = base.run;
  const sbp::sim::SimConfig config = bench_config(users, 0, 1);
  json::Value doc{json::Object{}};
  doc.set("experiment", "sim_throughput");
  doc.set("users", std::uint64_t{users});
  doc.set("ticks", run.metrics.ticks_run);
  doc.set("shards", std::uint64_t{config.num_shards});
  doc.set("seed", config.seed);
  doc.set("samples", std::uint64_t{sbp::bench::kSamples});
  doc.set("setup_seconds", rounded(run.setup_seconds, 3));
  doc.set("run_seconds", rounded(run.run_seconds, 3));
  doc.set("lookups", run.metrics.lookups);
  doc.set("lookups_per_sec", rounded(lookups_per_sec(run), 0));
  doc.set("user_ticks_per_sec", rounded(user_ticks_per_sec(run, users), 0));
  doc.set("users_per_sec_setup",
          rounded(static_cast<double>(users) / run.setup_seconds, 0));
  doc.set("local_hit_lookups", run.metrics.local_hit_lookups);
  doc.set("full_hash_requests", run.wire.full_hash_requests);
  doc.set("update_requests",
          run.wire.update_requests + run.wire.v4_update_requests);
  doc.set("wire_bytes_up", run.wire.bytes_up);
  doc.set("wire_bytes_down", run.wire.bytes_down);
  doc.set("cache_answers", run.population.cache_answers);
  doc.set("churn_events", run.metrics.churn_events);
  doc.set("churn_updates", run.metrics.churn_updates);
  doc.set("url_cache_hits", run.metrics.url_cache_hits);
  doc.set("url_cache_misses", run.metrics.url_cache_misses);
  doc.set("log_entries", run.log_entries);
  doc.set("log_prefixes", run.log_prefixes);
  doc.set("log_multi_prefix_entries", run.log_multi_prefix_entries);
  doc.set("log_fingerprint", json::hex_u64(run.log_fingerprint));
  doc.set("allocations_per_tick", rounded(allocations_per_tick(base), 0));
  // Lets bench comparers scale speedup expectations to the machine that
  // produced the numbers (a 1-core CI runner cannot show parallel gains).
  doc.set("hardware_threads",
          std::uint64_t{std::thread::hardware_concurrency()});
  // The SHA-256 compression the URL-cache misses ran ("sha-ni" or
  // "portable"): url_build time depends on it, the digests do not.
  doc.set("sha256_backend", sbp::crypto::sha256_backend());
  doc.set("thread_sweep", std::move(sweep));
  doc.set("max_speedup", rounded(max_speedup, 2));
  doc.set("metrics_overhead_max", rounded(metrics_overhead_max, 3));
  doc.set("deterministic_across_threads", deterministic);
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  sbp::bench::Args args(argc, argv);
  const std::size_t users = args.size_flag("--users", 100000);
  const std::uint64_t ticks = args.u64_flag("--ticks", 50);
  const std::string out_path = args.string_flag("--out", "BENCH_sim.json");
  // Comma-separated sweep, e.g. --threads 1,4,16
  const std::vector<std::uint64_t> threads_arg =
      args.u64_list_flag("--threads", {1, 2, 4, 8});
  if (!args.finish()) return 1;
  std::vector<std::size_t> thread_sweep(threads_arg.begin(),
                                        threads_arg.end());
  // The first point is the determinism baseline; force it to 1 thread.
  if (thread_sweep.front() != 1) {
    thread_sweep.insert(thread_sweep.begin(), 1);
  }

  sbp::bench::header("sim_throughput",
                     "population simulation engine, streaming query log, "
                     "thread-scaling sweep");
  std::printf("population: %zu users x %llu ticks, %zu samples per thread "
              "count\n",
              users, static_cast<unsigned long long>(ticks),
              sbp::bench::kSamples);

  // Every run, plain or metrics-on, is diffed against the first one.
  std::optional<ScenarioRunResult> reference;
  bool deterministic = true;
  const auto check = [&](const ScenarioRunResult& run,
                         const std::string& label) {
    if (!reference) {
      reference = run;
      return;
    }
    const std::vector<std::string> diffs = sbp::sim::run_diff(run, *reference);
    if (diffs.empty()) return;
    deterministic = false;
    std::fprintf(stderr,
                 "DETERMINISM FAILURE: %s diverged from the single-thread "
                 "baseline:\n",
                 label.c_str());
    for (const std::string& diff : diffs) {
      std::fprintf(stderr, "  %s\n", diff.c_str());
    }
  };

  std::optional<Sample> base;
  json::Array sweep;
  double best_seconds = 0.0;
  double metrics_overhead_max = 0.0;
  for (const std::size_t threads : thread_sweep) {
    const std::string label = std::to_string(threads) + "-thread run";
    const Sample median = sbp::bench::median_sample([&] {
      Sample sample = take_sample(users, ticks, threads, false);
      check(sample.run, label);
      return sample;
    });
    const Sample with_metrics = take_sample(users, ticks, threads, true);
    check(with_metrics.run, "metrics-on " + label);
    if (!base) {
      base = median;
      best_seconds = median.run.run_seconds;
    }
    best_seconds = std::min(best_seconds, median.run.run_seconds);
    const double overhead =
        median.run.run_seconds > 0.0
            ? (with_metrics.run.run_seconds - median.run.run_seconds) /
                  median.run.run_seconds
            : 0.0;
    metrics_overhead_max = std::max(metrics_overhead_max, overhead);
    std::printf(
        "threads=%zu (used %zu): %.3f s run (median), %.0f user-ticks/s, "
        "fingerprint 0x%016llx (metrics on: %.3f s, %+.1f%%)\n",
        threads, median.run.threads_used, median.run.run_seconds,
        user_ticks_per_sec(median.run, users),
        static_cast<unsigned long long>(median.run.log_fingerprint),
        with_metrics.run.run_seconds, overhead * 100.0);
    sweep.push_back(
        sweep_entry(threads, median, with_metrics, *base, users, overhead));
  }

  const json::Value doc =
      artifact(*base, users, std::move(sweep),
               base->run.run_seconds / best_seconds, metrics_overhead_max,
               deterministic);
  if (!sbp::bench::write_json(doc, out_path)) return 1;
  return deterministic ? 0 : 2;
}
