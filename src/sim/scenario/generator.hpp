// Seeded random-but-valid scenario generation (src/sim/scenario).
//
// The golden corpus pins behaviour on eight hand-picked configurations;
// `sbsim fuzz` explores the rest of the scenario space. ScenarioGenerator
// draws every knob the JSON scenario format exposes -- population shape,
// corpus, traffic, blacklist construction, churn epochs/rates/injections,
// protocol generations and mixes (v1/v3/v4), store backends incl. Bloom,
// mitigation toggles, cache bounds, thread counts -- from one util::Rng
// stream, so the same generator seed produces the exact same scenario
// stream on every machine and every run (the fuzzer's verdicts are then
// bit-reproducible too, which is what lets CI re-run a failing seed).
//
// Every emitted Scenario is VALID by construction: it satisfies the strict
// parse_scenario() validation rules (non-empty name and lists, alpha > 1,
// fractions in range) and stays CI-sized (GeneratorLimits caps users,
// ticks, corpus hosts and blacklist entries), so one fuzz iteration costs
// milliseconds, not minutes. The invariant layer (sim/invariants.hpp)
// additionally round-trips each scenario through its canonical JSON form,
// so an invalid emission would fail loudly rather than silently skew the
// exploration.
#pragma once

#include <cstdint>

#include "sim/scenario/scenario.hpp"
#include "util/rng.hpp"

namespace sbp::sim {

/// Size ceilings for generated scenarios. The defaults keep one invariant
/// check (several engine runs of the scenario) comfortably under a second
/// in Release, so `sbsim fuzz --iterations 50` is a CI-sized smoke, not an
/// overnight campaign. Raise them for deeper local campaigns.
struct GeneratorLimits {
  std::size_t max_users = 160;        ///< >= 8 drawn
  std::uint64_t max_ticks = 32;       ///< >= 6 drawn
  std::size_t max_hosts = 400;        ///< corpus sites, >= 60 drawn
  std::size_t max_blacklist_entries = 384;  ///< >= 64 drawn
};

/// Per-client Bloom size for a population of `max_entries` blacklist
/// entries: ~32 bits per entry (Chromium's 3 MB / 630k ratio), at least
/// 4096. bloom_bits 0 would instantiate the 3 MB constant once per user.
[[nodiscard]] std::size_t population_bloom_bits(std::size_t max_entries);

/// Deterministic scenario stream: same seed (and limits) => identical
/// sequence of scenarios, knob for knob. next() never repeats a name --
/// scenarios are named "fuzz-<seed-hex>-<iteration>" so a repro names its
/// provenance.
class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(std::uint64_t seed,
                             GeneratorLimits limits = GeneratorLimits{});

  /// Emits the next random-but-valid scenario of the stream.
  [[nodiscard]] Scenario next();

  /// Scenarios emitted so far.
  [[nodiscard]] std::uint64_t emitted() const noexcept { return iteration_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
  GeneratorLimits limits_;
  util::Rng rng_;
  std::uint64_t iteration_ = 0;
};

}  // namespace sbp::sim
