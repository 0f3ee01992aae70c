// Declarative simulation scenarios (src/sim/scenario).
//
// The paper's result matrix is a set of *scenarios* -- protocol
// generations, churned vs frozen lists, tracking and injection
// adversaries, mitigations on and off. This layer makes each of them a
// checked-in JSON file instead of hard-coded C++: a Scenario is the full
// sim::SimConfig (population, traffic, blacklist, churn + injections,
// mitigations, protocol mix, store backend, threads, seeds), a report
// block selecting which observables to emit, and an optional golden block
// pinning the run's deterministic observables (query-log fingerprint,
// entry/prefix counts, wire bytes). `sbsim verify scenarios/` re-runs
// every golden at several thread counts, turning the engine's determinism
// contract -- same config => bit-identical logs at ANY thread count --
// into data the CI matrix checks on every push.
//
// Parsing is STRICT: unknown keys, malformed values and out-of-range
// numbers are located errors, not silent defaults -- a typoed knob in a
// scenario file must fail loudly, exactly like a malformed wire frame.
// Each block's keys, with their range rules, are declared once in a field
// list in scenario.cpp that both the parser and the canonical writer walk.
// Field names mirror docs/simulation.md (see docs/scenarios.md for the
// file-format reference).
#pragma once

#include <optional>
#include <string>

#include "sim/config.hpp"
#include "util/json/json.hpp"

namespace sbp::sim {

/// Which report sections `sbsim run` emits (all deterministic sections are
/// computed from the run; the analysis sections rebuild the corpus-side
/// indexes of src/analysis, so they cost time and are opt-in).
struct ReportConfig {
  bool transport = true;   ///< TransportStats incl. update-channel bytes
  bool metrics = true;     ///< engine SimMetrics (lookups, churn, caches)
  bool population = true;  ///< summed per-client ClientMetrics
  /// Empirical k-anonymity of the scenario's corpus (analysis/kanonymity):
  /// the uncertainty the provider faces per received prefix.
  bool kanonymity = false;
  /// Re-identification of the multi-prefix queries the population actually
  /// sent (analysis/reidentify over the corpus index) -- the Section 5.3
  /// observable.
  bool reidentification = false;
  /// Cap on multi-prefix queries retained for the re-identification
  /// section (memory/time bound; 0 = unlimited).
  std::size_t reid_max_queries = 4096;
};

/// The deterministic observables a scenario pins. Every field is covered
/// by the engine's determinism contract (thread-count independent), so a
/// golden mismatch is a real behaviour change, never scheduling noise.
struct ScenarioGolden {
  std::uint64_t fingerprint = 0;  ///< order-sensitive query-log FNV-1a
  std::uint64_t entries = 0;      ///< query-log entries
  std::uint64_t prefixes = 0;     ///< prefixes across all entries
  std::uint64_t multi_prefix_entries = 0;
  std::uint64_t lookups = 0;      ///< population-wide browse count
  std::uint64_t wire_bytes_up = 0;
  std::uint64_t wire_bytes_down = 0;
};

/// Optional checkpoint directive (docs/persistence.md): the runner writes
/// the server's snapshot container to `path`. With `at_epoch > 0` the
/// checkpoint is taken the moment the engine completes that churn epoch --
/// an epoch boundary, so the persisted state is sealed and a restored
/// daemon resumes mid-churn with identical chunk sequences. With
/// `at_epoch == 0` (or a churn-free scenario) it is taken after the final
/// tick.
struct ScenarioSnapshot {
  std::string path;
  std::uint64_t at_epoch = 0;
};

/// One declarative workload: name + config + report plan + golden.
struct Scenario {
  std::string name;
  std::string description;
  SimConfig config;
  ReportConfig report;
  std::optional<ScenarioGolden> golden;
  std::optional<ScenarioSnapshot> snapshot;
};

/// Parses a scenario document. On failure returns nullopt and, when
/// `error` is non-null, a message naming the offending key/value.
[[nodiscard]] std::optional<Scenario> parse_scenario(
    const util::json::Value& document, std::string* error);

/// Loads + parses a scenario file (I/O errors reported like parse errors).
[[nodiscard]] std::optional<Scenario> load_scenario(const std::string& path,
                                                    std::string* error);

/// Serializes a scenario back to JSON. `config_to_json(parse(x).config)`
/// is the canonical form of `x`: every knob explicit, defaults included --
/// what `sbsim print` shows and the round-trip tests compare.
[[nodiscard]] util::json::Value scenario_to_json(const Scenario& scenario);
[[nodiscard]] util::json::Value config_to_json(const SimConfig& config);
[[nodiscard]] util::json::Value golden_to_json(const ScenarioGolden& golden);

/// Reads a whole file into `out` (false + error message on I/O failure).
/// Shared by sbsim and the scenario tests; lives here to keep the CLI thin.
[[nodiscard]] bool read_file(const std::string& path, std::string* out,
                             std::string* error);
/// Atomically-ish writes `text` to `path` (truncate + write + close).
[[nodiscard]] bool write_file(const std::string& path,
                              const std::string& text, std::string* error);

}  // namespace sbp::sim
