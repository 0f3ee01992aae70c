// Live blacklist churn: the deterministic epoch schedule (src/sim).
//
// The paper's privacy findings treat the provider's lists as moving
// targets: Google reported ~9500 new malicious sites per day against a
// ~630k-prefix database (Sections 2.2.2 and 7.1 -- the "highly dynamic"
// lists that forced delta-coded tables over Bloom filters and keep
// reconstruction-by-crawling hard). `analysis/update_dynamics` measures
// those dynamics over a single client; this module makes them a property
// of the whole simulated world: a ChurnSchedule plans, per epoch and per
// list, which expressions the server adds and which live entries it
// retires, entirely from a seeded RNG stream -- so a churning population
// run is exactly as reproducible as a frozen one.
//
// The schedule also carries targeted prefix injections: the Section 6
// abuse where the provider adds a victim-specific prefix to a list mid-run
// and then watches its own query log for the victims. An injection is an
// ordinary epoch mutation, which is the point -- nothing distinguishes it
// on the wire from organic churn.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace sbp::sim {

/// One provider-side targeted injection (paper Section 6): at the start of
/// `epoch`, `expression` is added to `list` alongside the organic churn of
/// that epoch. Injected expressions are never retired by the schedule --
/// the attacker keeps the victim prefix listed.
struct PrefixInjection {
  std::uint64_t epoch = 1;  ///< 1-based epoch index the injection fires at
  std::string list;         ///< empty = the first configured list
  std::string expression;   ///< SB expression, e.g. "victim.example/"
};

/// The `SimConfig.churn` block: epoch-based live mutation of the server
/// blacklists, plus the re-sync cadence it forces on clients.
struct ChurnConfig {
  /// Every `epoch_ticks` the engine runs one churn epoch (serial phase):
  /// the schedule's adds/removals are applied, every list seals a new
  /// chunk (bumping the v3 chunk / v4 state-token sequence). 0 = frozen
  /// lists, no epochs, no re-syncs -- the pre-churn engine.
  std::uint64_t epoch_ticks = 0;

  /// Fraction of a list's current live entries added per epoch. The
  /// default is the paper's measured dynamics (~9500 new sites/day on
  /// ~630k prefixes ~ 1.5%/day); `analysis::fit_churn_rates` recovers
  /// these rates from a measured `analysis::ChurnReport`.
  double add_rate = 0.015;
  /// Fraction of current live entries retired per epoch (oldest first).
  double remove_rate = 0.015;

  /// Hard cap on adds per list per epoch (keeps client stores bounded at
  /// aggressive rates, like BlacklistConfig.max_entries does at t=0).
  std::size_t max_epoch_adds = 1024;

  /// Server-imposed minimum wait between client updates (v3
  /// `next_update_after` / v4 `minimum_wait`), which is also the cadence
  /// of the engine's staggered client re-syncs: each user re-polls every
  /// `minimum_wait_ticks`, offset by a per-user deterministic stagger.
  /// 0 = use `epoch_ticks`. Because the server's wait gates the very
  /// first poll too, a user's first mid-run re-sync lands in
  /// [cadence, 2*cadence).
  std::uint64_t minimum_wait_ticks = 0;

  /// Targeted injections (Section 6), applied at their epochs.
  std::vector<PrefixInjection> injections;
};

/// Seeded planner of epoch mutations. The engine registers every seeded
/// blacklist entry at construction; each plan_epoch() call then draws the
/// epoch's add count and retirement count per list from the schedule's own
/// RNG stream (expectation + Bernoulli remainder, so non-integer expected
/// counts stay unbiased), retires the oldest live entries first -- the
/// aging FIFO `analysis/update_dynamics` models -- and mints fresh,
/// never-colliding expressions for the adds.
class ChurnSchedule {
 public:
  struct ListPlan {
    std::string list;
    std::vector<std::string> add_expressions;
    std::vector<std::string> remove_expressions;
  };
  struct EpochPlan {
    std::uint64_t epoch = 0;
    std::vector<ListPlan> lists;
    std::vector<PrefixInjection> injections;  ///< list names resolved
  };

  /// `lists` fixes the iteration (and thus RNG-consumption) order.
  ChurnSchedule(ChurnConfig config, std::vector<std::string> lists,
                std::uint64_t seed);

  /// Records a live entry seeded at t=0 so epochs can retire it later.
  /// Unknown lists are ignored (only configured lists churn).
  void register_seed_expression(std::string_view list,
                                std::string_view expression);

  /// Plans (and internally commits) epoch `epoch`; call with 1, 2, 3, ...
  [[nodiscard]] EpochPlan plan_epoch(std::uint64_t epoch);

 private:
  struct ListState {
    std::string name;
    std::deque<std::string> live;  // oldest first
  };

  [[nodiscard]] ListState* find(std::string_view list);
  /// expectation-plus-Bernoulli draw of a per-epoch count.
  [[nodiscard]] std::size_t draw_count(double expected);

  ChurnConfig config_;
  util::Rng rng_;
  std::uint64_t expression_counter_ = 0;
  std::vector<ListState> lists_;
};

}  // namespace sbp::sim
