// Scenario execution, reporting and golden verification (src/sim/scenario).
//
// run_scenario() drives one sim::Engine from a Scenario and gathers every
// observable the report block asks for: the constant-memory log
// fingerprint (always), wire/update bytes, engine + population counters,
// and the opt-in analysis sections (empirical k-anonymity of the corpus,
// re-identification of the multi-prefix queries the population actually
// sent -- the Section 5.3/6.1 adversary run against the scenario's own
// log). verify_scenario() is the determinism contract as a check: re-run
// the scenario at several thread counts and compare every deterministic
// observable against the checked-in golden; any drift is a failure with a
// field-level diagnosis. run_diff() is the same contract between two runs:
// the one place that decides whether two runs match.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/kanonymity.hpp"
#include "obs/snapshot.hpp"
#include "sim/engine.hpp"
#include "sim/scenario/scenario.hpp"

namespace sbp::sim {

class CountingSink;

/// Re-identification of the run's own multi-prefix queries.
struct ReidSummary {
  std::uint64_t multi_prefix_queries = 0;  ///< observed in the log
  std::uint64_t inverted = 0;              ///< retained and inverted
  std::uint64_t unique = 0;                ///< re-identified to ONE URL
  double mean_candidates = 0.0;            ///< mean candidate-set size
};

/// Everything one scenario run produced.
struct ScenarioRunResult {
  std::size_t threads_used = 0;
  double setup_seconds = 0.0;
  double run_seconds = 0.0;

  SimMetrics metrics;
  sb::ClientMetrics population;
  sb::TransportStats wire;

  std::uint64_t log_entries = 0;
  std::uint64_t log_prefixes = 0;
  std::uint64_t log_multi_prefix_entries = 0;
  std::uint64_t log_fingerprint = 0;

  std::optional<analysis::KAnonymityStats> kanonymity;
  std::optional<ReidSummary> reidentification;

  /// Observability snapshot (src/obs), set when config.collect_metrics is
  /// on: per-phase wall time, pool and transport instrumentation.
  /// Orthogonal to every deterministic observable above. Shared and
  /// immutable (the snapshot itself is move-only), so results copy as
  /// values -- the benches keep reference runs to diff against.
  std::shared_ptr<const obs::Snapshot> obs;

  /// Scenario snapshot block outcome: whether a checkpoint file was
  /// written, and the located failure reason when it was not (empty when
  /// the scenario has no snapshot block).
  bool snapshot_written = false;
  std::string snapshot_error;

  /// The deterministic observables of this run, as a golden block.
  [[nodiscard]] ScenarioGolden golden() const noexcept;
};

/// Runs the scenario once. `threads_override` replaces config.num_threads
/// (the one knob outside the determinism contract).
[[nodiscard]] ScenarioRunResult run_scenario(
    const Scenario& scenario,
    std::optional<std::size_t> threads_override = std::nullopt);

/// The observables of a finished `engine` whose query log streamed through
/// `log`: threads used, the three counter tables, the log summary and (with
/// metrics on) the obs snapshot. Timings and analysis sections are left to
/// the caller -- run_scenario() and the benches that time engine.run()
/// alone both read their engines through this.
[[nodiscard]] ScenarioRunResult read_run(const Engine& engine,
                                         const CountingSink& log);

/// The full `sbsim run` report (scenario identity + run observables +
/// requested sections).
[[nodiscard]] util::json::Value report_to_json(
    const Scenario& scenario, const ScenarioRunResult& result);

/// One thread-count leg of a verification.
struct VerifyRun {
  std::size_t threads_requested = 0;
  std::size_t threads_used = 0;
  double run_seconds = 0.0;
  ScenarioGolden observed;
};

/// Verification outcome over all requested thread counts.
struct VerifyResult {
  bool passed = false;
  std::vector<VerifyRun> runs;
  /// Human-readable failure diagnoses ("threads=2: fingerprint 0x.. !=
  /// golden 0x.."); empty iff passed.
  std::vector<std::string> failures;
};

/// Re-runs `scenario` at each thread count and compares against its golden
/// block (a missing golden fails verification -- un-pinned scenarios are
/// exactly what verify exists to catch). With `with_metrics` the legs run
/// with collect_metrics forced ON -- same goldens expected, which makes
/// verify double as the metrics-layer zero-interference check
/// (`sbsim verify --metrics`).
[[nodiscard]] VerifyResult verify_scenario(
    const Scenario& scenario, const std::vector<std::size_t>& thread_counts,
    bool with_metrics = false);

/// Field-level golden comparison ("wire_bytes_down 123 != golden 456");
/// empty iff equal. Shared by verify_scenario and `sbsim run`'s golden
/// check so mismatch diagnoses always name the drifted field.
[[nodiscard]] std::vector<std::string> golden_diff(
    const ScenarioGolden& observed, const ScenarioGolden& expected);

/// Every deterministic observable on which two runs differ: golden_diff of
/// their golden blocks plus one "section.name got != want" entry per
/// differing `kCounters` row of SimMetrics ("metrics"), ClientMetrics
/// ("population") and TransportStats ("wire"). Empty iff the runs match.
/// The invariants, `sbsim bless`, the population benches and the engine
/// tests all gate on it.
[[nodiscard]] std::vector<std::string> run_diff(const ScenarioRunResult& got,
                                                const ScenarioRunResult& want);

}  // namespace sbp::sim
