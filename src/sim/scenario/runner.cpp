#include "sim/scenario/runner.hpp"

#include <chrono>
#include <utility>

#include "analysis/reidentify.hpp"
#include "sim/log_sink.hpp"
#include "sim/snapshot_io.hpp"
#include "storage/snapshot.hpp"

namespace sbp::sim {

namespace json = util::json;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Retains only multi-prefix entries' prefix vectors (bounded), so the
/// re-identification section never needs the full log in RAM.
class MultiPrefixSink : public sb::QueryLogSink {
 public:
  explicit MultiPrefixSink(std::size_t max_retained)
      : max_retained_(max_retained) {}

  void record(const sb::QueryLogEntry& entry) override {
    if (entry.prefixes.size() < 2) return;
    ++seen_;
    if (max_retained_ == 0 || retained_.size() < max_retained_) {
      retained_.push_back(entry.prefixes);
    }
  }

  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  [[nodiscard]] const std::vector<std::vector<crypto::Prefix32>>& retained()
      const noexcept {
    return retained_;
  }

 private:
  std::size_t max_retained_;
  std::uint64_t seen_ = 0;
  std::vector<std::vector<crypto::Prefix32>> retained_;
};

json::Value metrics_to_json(const SimMetrics& metrics) {
  json::Value out{json::Object{}};
  out.set("ticks_run", metrics.ticks_run);
  out.set("lookups", metrics.lookups);
  out.set("local_hit_lookups", metrics.local_hit_lookups);
  out.set("dispatched_lookups", metrics.dispatched_lookups);
  out.set("mitigated_lookups", metrics.mitigated_lookups);
  out.set("malicious_verdicts", metrics.malicious_verdicts);
  out.set("target_visits", metrics.target_visits);
  out.set("churn_events", metrics.churn_events);
  out.set("churn_adds", metrics.churn_adds);
  out.set("churn_removes", metrics.churn_removes);
  out.set("injected_prefixes", metrics.injected_prefixes);
  out.set("churn_updates", metrics.churn_updates);
  out.set("url_cache_hits", metrics.url_cache_hits);
  out.set("url_cache_misses", metrics.url_cache_misses);
  out.set("url_cache_invalidations", metrics.url_cache_invalidations);
  return out;
}

json::Value population_to_json(const sb::ClientMetrics& population) {
  json::Value out{json::Object{}};
  out.set("lookups", population.lookups);
  out.set("local_hits", population.local_hits);
  out.set("multi_prefix_lookups", population.multi_prefix_lookups);
  out.set("full_hash_requests", population.full_hash_requests);
  out.set("cache_answers", population.cache_answers);
  out.set("malicious_verdicts", population.malicious_verdicts);
  out.set("network_errors", population.network_errors);
  out.set("backoff_suppressed", population.backoff_suppressed);
  out.set("updates_attempted", population.updates_attempted);
  out.set("updates_failed", population.updates_failed);
  return out;
}

json::Value wire_to_json(const sb::TransportStats& wire) {
  json::Value out{json::Object{}};
  out.set("full_hash_requests", wire.full_hash_requests);
  out.set("update_requests", wire.update_requests);
  out.set("v4_update_requests", wire.v4_update_requests);
  out.set("v1_requests", wire.v1_requests);
  out.set("failed_requests", wire.failed_requests);
  out.set("bytes_up", wire.bytes_up);
  out.set("bytes_down", wire.bytes_down);
  out.set("update_bytes_up", wire.update_bytes_up);
  out.set("update_bytes_down", wire.update_bytes_down);
  return out;
}

}  // namespace

ScenarioGolden ScenarioRunResult::golden() const noexcept {
  ScenarioGolden out;
  out.fingerprint = log_fingerprint;
  out.entries = log_entries;
  out.prefixes = log_prefixes;
  out.multi_prefix_entries = log_multi_prefix_entries;
  out.lookups = metrics.lookups;
  out.wire_bytes_up = wire.bytes_up;
  out.wire_bytes_down = wire.bytes_down;
  return out;
}

ScenarioRunResult run_scenario(const Scenario& scenario,
                               std::optional<std::size_t> threads_override) {
  SimConfig config = scenario.config;
  if (threads_override) config.num_threads = *threads_override;

  ScenarioRunResult result;
  const auto setup_start = Clock::now();
  Engine engine(std::move(config));
  result.setup_seconds = seconds_since(setup_start);
  result.threads_used = engine.num_threads();

  CountingSink counter;
  MultiPrefixSink multi(scenario.report.reid_max_queries);
  std::vector<sb::QueryLogSink*> sinks = {&counter};
  if (scenario.report.reidentification) sinks.push_back(&multi);
  FanoutSink fanout(std::move(sinks));
  engine.attach_sink(&fanout, /*retain_in_memory=*/false);

  const auto run_start = Clock::now();
  if (scenario.snapshot) {
    // Checkpoint the serving state mid-run: the first time the requested
    // churn epoch completes (an epoch boundary, so every chunk is sealed),
    // or after the final tick when at_epoch is 0 / never reached. The
    // snapshot bytes are a pure function of the scenario, so re-running at
    // another thread count rewrites an identical file.
    storage::FileBackend backend(scenario.snapshot->path);
    bool written = false;
    while (engine.step()) {
      if (!written && scenario.snapshot->at_epoch > 0 &&
          engine.churn_epochs() >= scenario.snapshot->at_epoch) {
        result.snapshot_written =
            checkpoint_engine(engine, &counter, backend,
                              &result.snapshot_error);
        written = true;
      }
    }
    if (!written) {
      result.snapshot_written = checkpoint_engine(
          engine, &counter, backend, &result.snapshot_error);
    }
  } else {
    engine.run();
  }
  result.run_seconds = seconds_since(run_start);

  result.metrics = engine.metrics();
  result.population = engine.population_metrics();
  result.wire = engine.transport_stats();
  result.client_state_builds = engine.client_state_builds();
  result.site_cache_hits = engine.site_cache_hits();
  result.site_cache_misses = engine.site_cache_misses();
  if (engine.metrics_enabled()) result.obs = engine.obs_snapshot();
  result.log_entries = counter.entries();
  result.log_prefixes = counter.prefixes();
  result.log_multi_prefix_entries = counter.multi_prefix_entries();
  result.log_fingerprint = counter.fingerprint();

  if (scenario.report.kanonymity) {
    analysis::KAnonymityIndex index(32);
    index.add_corpus(engine.traffic_model().corpus());
    result.kanonymity = index.stats();
  }

  if (scenario.report.reidentification) {
    analysis::ReidentificationIndex index;
    index.add_corpus(engine.traffic_model().corpus());
    ReidSummary summary;
    summary.multi_prefix_queries = multi.seen();
    double candidates_total = 0.0;
    for (const auto& prefixes : multi.retained()) {
      const auto reid = index.reidentify(prefixes);
      ++summary.inverted;
      if (reid.unique()) ++summary.unique;
      candidates_total += static_cast<double>(reid.candidate_urls.size());
    }
    summary.mean_candidates =
        summary.inverted > 0
            ? candidates_total / static_cast<double>(summary.inverted)
            : 0.0;
    result.reidentification = summary;
  }

  return result;
}

json::Value report_to_json(const Scenario& scenario,
                           const ScenarioRunResult& result) {
  json::Value out{json::Object{}};
  out.set("scenario", scenario.name);
  out.set("description", scenario.description);
  out.set("threads_used", std::uint64_t{result.threads_used});
  out.set("setup_seconds", result.setup_seconds);
  out.set("run_seconds", result.run_seconds);

  json::Value log{json::Object{}};
  log.set("entries", result.log_entries);
  log.set("prefixes", result.log_prefixes);
  log.set("multi_prefix_entries", result.log_multi_prefix_entries);
  log.set("fingerprint", json::hex_u64(result.log_fingerprint));
  out.set("query_log", std::move(log));

  if (scenario.report.metrics) {
    out.set("metrics", metrics_to_json(result.metrics));
  }
  if (scenario.report.population) {
    out.set("population", population_to_json(result.population));
  }
  if (scenario.report.transport) {
    out.set("transport", wire_to_json(result.wire));
  }
  if (result.kanonymity) {
    const analysis::KAnonymityStats& stats = *result.kanonymity;
    json::Value kanon{json::Object{}};
    kanon.set("distinct_prefixes", stats.distinct_prefixes);
    kanon.set("total_expressions", stats.total_expressions);
    kanon.set("min_k", stats.min_k);
    kanon.set("max_k", stats.max_k);
    kanon.set("mean_k", stats.mean_k);
    kanon.set("unique_fraction", stats.unique_fraction);
    out.set("kanonymity", std::move(kanon));
  }
  if (result.reidentification) {
    const ReidSummary& reid = *result.reidentification;
    json::Value section{json::Object{}};
    section.set("multi_prefix_queries", reid.multi_prefix_queries);
    section.set("inverted", reid.inverted);
    section.set("unique", reid.unique);
    section.set("mean_candidates", reid.mean_candidates);
    out.set("reidentification", std::move(section));
  }

  if (scenario.golden) {
    out.set("golden_match",
            golden_diff(result.golden(), *scenario.golden).empty());
  }
  return out;
}

std::vector<std::string> golden_diff(const ScenarioGolden& observed,
                                     const ScenarioGolden& expected) {
  std::vector<std::string> diffs;
  const auto check = [&](const char* field, std::uint64_t got,
                         std::uint64_t want, bool hex) {
    if (got == want) return;
    const auto show = [hex](std::uint64_t value) {
      return hex ? json::hex_u64(value) : std::to_string(value);
    };
    diffs.push_back(std::string(field) + " " + show(got) + " != golden " +
                    show(want));
  };
  check("fingerprint", observed.fingerprint, expected.fingerprint, true);
  check("entries", observed.entries, expected.entries, false);
  check("prefixes", observed.prefixes, expected.prefixes, false);
  check("multi_prefix_entries", observed.multi_prefix_entries,
        expected.multi_prefix_entries, false);
  check("lookups", observed.lookups, expected.lookups, false);
  check("wire_bytes_up", observed.wire_bytes_up, expected.wire_bytes_up,
        false);
  check("wire_bytes_down", observed.wire_bytes_down,
        expected.wire_bytes_down, false);
  return diffs;
}

VerifyResult verify_scenario(const Scenario& scenario,
                             const std::vector<std::size_t>& thread_counts,
                             bool with_metrics) {
  VerifyResult result;
  if (!scenario.golden) {
    result.failures.push_back(
        "no golden block -- run `sbsim bless` and commit the result");
    return result;
  }

  for (const std::size_t threads : thread_counts) {
    // Verification never needs the analysis sections; run the bare config.
    // with_metrics forces profiling ON against the unchanged goldens: any
    // observability bug that touches a deterministic observable fails
    // here exactly like a threading bug would.
    Scenario bare = scenario;
    bare.report = ReportConfig{};
    bare.config.collect_metrics = with_metrics;
    const ScenarioRunResult run = run_scenario(bare, threads);

    VerifyRun leg;
    leg.threads_requested = threads;
    leg.threads_used = run.threads_used;
    leg.run_seconds = run.run_seconds;
    leg.observed = run.golden();
    result.runs.push_back(leg);

    for (const std::string& diff :
         golden_diff(leg.observed, *scenario.golden)) {
      result.failures.push_back("threads=" + std::to_string(threads) +
                                ": " + diff);
    }
  }

  result.passed = result.failures.empty();
  return result;
}

}  // namespace sbp::sim
