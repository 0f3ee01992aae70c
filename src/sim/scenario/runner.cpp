#include "sim/scenario/runner.hpp"

#include <chrono>
#include <memory>
#include <type_traits>
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

ScenarioRunResult read_run(const Engine& engine, const CountingSink& log) {
  ScenarioRunResult result;
  result.threads_used = engine.num_threads();
  result.metrics = engine.metrics();
  result.population = engine.population_metrics();
  result.wire = engine.transport_stats();
  if (engine.metrics_enabled()) {
    result.obs = std::make_shared<const obs::Snapshot>(engine.obs_snapshot());
  }
  result.log_entries = log.entries();
  result.log_prefixes = log.prefixes();
  result.log_multi_prefix_entries = log.multi_prefix_entries();
  result.log_fingerprint = log.fingerprint();
  return result;
}

ScenarioRunResult run_scenario(const Scenario& scenario,
                               std::optional<std::size_t> threads_override) {
  SimConfig config = scenario.config;
  if (threads_override) config.num_threads = *threads_override;

  const auto setup_start = Clock::now();
  Engine engine(std::move(config));
  const double setup_seconds = seconds_since(setup_start);

  CountingSink counter;
  MultiPrefixSink multi(scenario.report.reid_max_queries);
  std::vector<sb::QueryLogSink*> sinks = {&counter};
  if (scenario.report.reidentification) sinks.push_back(&multi);
  FanoutSink fanout(std::move(sinks));
  engine.attach_sink(&fanout, /*retain_in_memory=*/false);

  bool snapshot_written = false;
  std::string snapshot_error;
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
        snapshot_written =
            checkpoint_engine(engine, &counter, backend, &snapshot_error);
        written = true;
      }
    }
    if (!written) {
      snapshot_written =
          checkpoint_engine(engine, &counter, backend, &snapshot_error);
    }
  } else {
    engine.run();
  }
  const double run_seconds = seconds_since(run_start);

  ScenarioRunResult result = read_run(engine, counter);
  result.setup_seconds = setup_seconds;
  result.run_seconds = run_seconds;
  result.snapshot_written = snapshot_written;
  result.snapshot_error = std::move(snapshot_error);

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
    out.set("metrics", json::counters_to_json(result.metrics));
  }
  if (scenario.report.population) {
    out.set("population", json::counters_to_json(result.population));
  }
  if (scenario.report.transport) {
    out.set("transport", json::counters_to_json(result.wire));
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
  // Both sides in their canonical form: one entry per golden field, in
  // the field list's order, the fingerprint as its hex string.
  const json::Value got = golden_to_json(observed);
  const json::Value want = golden_to_json(expected);
  const auto show = [](const json::Value& value) {
    return value.is_string() ? value.as_string() : json::dump(value, 0);
  };
  std::vector<std::string> diffs;
  for (std::size_t i = 0; i < got.as_object().size(); ++i) {
    const auto& [field, value] = got.as_object()[i];
    const std::string shown = show(value);
    const std::string golden = show(want.as_object()[i].second);
    if (shown != golden) {
      diffs.push_back(field + " " + shown + " != golden " + golden);
    }
  }
  return diffs;
}

std::vector<std::string> run_diff(const ScenarioRunResult& got,
                                  const ScenarioRunResult& want) {
  std::vector<std::string> diffs = golden_diff(got.golden(), want.golden());
  const auto compare = [&diffs](const char* section, const auto& a,
                                const auto& b) {
    for (const auto& field : std::remove_cvref_t<decltype(a)>::kCounters) {
      if (a.*field.member != b.*field.member) {
        diffs.push_back(std::string(section) + "." + field.name + " " +
                        std::to_string(a.*field.member) + " != " +
                        std::to_string(b.*field.member));
      }
    }
  };
  compare("metrics", got.metrics, want.metrics);
  compare("population", got.population, want.population);
  compare("wire", got.wire, want.wire);
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
