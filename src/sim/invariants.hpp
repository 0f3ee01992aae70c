// Engine-wide invariant oracles (src/sim) -- golden-free correctness.
//
// The golden corpus pins 9 hand-picked scenarios; this layer states what
// must hold for EVERY valid scenario, so `sbsim fuzz` can explore the
// configuration space without a blessed answer key. The catalog:
//
//   thread-determinism    same scenario at thread counts 1/2/8 produces a
//                         bit-identical golden block (fingerprint, log
//                         counts, wire bytes) -- the contract engine.hpp
//                         documents, checked on an arbitrary config
//                         instead of the blessed corpus.
//   metrics-transparency  collect_metrics on vs off changes no
//                         deterministic observable (the obs layer reads
//                         clocks, never state).
//   protocol-equivalence  v3 and v4 twins of the scenario (same seed,
//                         same blacklist, mix_fraction 0) see identical
//                         verdicts and identical server-side query-log
//                         observables -- the paper's Section 4-5 claim
//                         that the generations differ in transport, not
//                         in what the provider learns. Wire BYTES are
//                         excluded: v4's sliced encoding is cheaper by
//                         design. Bloom scenarios are compared on an
//                         exact store instead: v4's checksummed slices
//                         force an exact client database, so a v3 Bloom
//                         client's false-positive queries are a real
//                         asymmetry of the deployed systems (this fuzzer
//                         found it), not a determinism bug.
//   counter-conservation  the engine's counters obey their defining
//                         arithmetic: every lookup is either prefiltered
//                         away, dispatched, or mitigated; churn epochs
//                         fire exactly floor((ticks-1)/epoch_ticks)
//                         times; protocols absent from the fleet leave
//                         zero wire requests; the in-process transport
//                         never fails; the server log holds exactly one
//                         entry per full-hash/v1 request.
//   canonical-roundtrip   scenario_to_json -> dump -> parse ->
//                         parse_scenario -> scenario_to_json is a
//                         fixpoint (the canonical form is stable and
//                         loses nothing).
//   checkpoint-restore    after the run, checkpointing the server to a
//                         memory backend, restoring into a fresh server
//                         and re-checkpointing is a byte fixpoint, and
//                         the restored server serves byte-identical v3
//                         and v4 update frames (same chunk sequences,
//                         prefix sets and digests) -- the persistence
//                         contract of docs/persistence.md, exercised on
//                         every generated scenario.
//   batch-scalar-equivalence
//                         for every store kind, batch contains_many32 over
//                         an unsorted, duplicate-bearing query mix answers
//                         like a plain reference: binary search over the
//                         sorted members for the exact stores (raw-sorted,
//                         delta-coded, v4 raw-hash); for Bloom, every
//                         member answers true and each answer equals the
//                         batch-of-one answer. Store shape and query mix
//                         derive from the scenario's seed and blacklist
//                         knobs. The contract behind the engine's batched
//                         prefilter hot path.
//   reference-equivalence a naive per-user replay of the paper's Figure 3
//                         client flow (URL string -> client.lookup(url),
//                         private re-syncs; no URL cache, prefilter, site
//                         table or shared client state) on a shrunk
//                         population produces the engine's query-log
//                         fingerprint, malicious verdicts, TransportStats
//                         and v4 list checksums -- the licence for every
//                         engine shortcut.
//
// On failure, shrink_failing_scenario() greedily minimizes the scenario
// (halve the population, drop churn, disable mitigation, ...) while the
// SAME invariant still fails, yielding the small repro `sbsim fuzz`
// writes to disk.
//
// InvariantOptions.doctor is the harness's self-test hook: naming an
// invariant forces it to report a synthetic failure even on a healthy
// engine, which is how the fuzz tests (and the acceptance criteria)
// prove that failure detection, shrinking and repro writing actually
// fire -- a fuzzer whose failure path is never exercised is worthless.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario/scenario.hpp"

namespace sbp::sim {

/// All invariant names, in check order (the catalog above).
[[nodiscard]] const std::vector<std::string>& invariant_names();

struct InvariantOptions {
  /// Thread counts the determinism legs run at (clamped by the engine to
  /// the shard count; duplicates after clamping are fine).
  std::vector<std::size_t> thread_counts = {1, 2, 8};
  /// Self-test hook: name an invariant to force a synthetic failure on it
  /// ("" = check honestly). Unknown names are reported as a usage-level
  /// failure so a typoed --doctor can't silently pass.
  std::string doctor;
};

struct InvariantFailure {
  std::string invariant;  ///< catalog name
  std::string detail;     ///< field-level diagnosis
};

struct InvariantReport {
  std::vector<std::string> checked;       ///< invariants evaluated
  std::vector<InvariantFailure> failures; ///< empty iff all held

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  /// "5 invariants ok" / "thread-determinism: threads=2: fingerprint ...".
  [[nodiscard]] std::string summary() const;
  /// True iff some failure names `invariant`.
  [[nodiscard]] bool failed(const std::string& invariant) const;
};

/// Runs the full catalog against one scenario (several engine runs).
[[nodiscard]] InvariantReport check_invariants(
    const Scenario& scenario, const InvariantOptions& options = {});

/// Greedy scenario minimization: repeatedly applies simplifying
/// transforms (halve users/ticks/hosts, drop churn/injections/mitigation/
/// mix, shrink the blacklist, ...) and keeps a candidate iff the SAME
/// invariant that failed on `scenario` still fails on it; repeats to a
/// fixpoint. Deterministic: no randomness, transform order is fixed.
struct ShrinkResult {
  Scenario scenario;        ///< the minimized repro
  InvariantReport report;   ///< its (still-failing) report
  std::size_t steps_tried = 0;
  std::size_t steps_accepted = 0;
};

[[nodiscard]] ShrinkResult shrink_failing_scenario(
    const Scenario& scenario, const InvariantOptions& options);

}  // namespace sbp::sim
