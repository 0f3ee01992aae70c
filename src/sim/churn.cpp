#include "sim/churn.hpp"

#include <algorithm>
#include <utility>

namespace sbp::sim {

ChurnSchedule::ChurnSchedule(ChurnConfig config, std::vector<std::string> lists,
                             std::uint64_t seed)
    : config_(std::move(config)), rng_(seed) {
  lists_.reserve(lists.size());
  for (auto& name : lists) {
    lists_.push_back(ListState{std::move(name), {}});
  }
}

ChurnSchedule::ListState* ChurnSchedule::find(std::string_view list) {
  for (auto& state : lists_) {
    if (state.name == list) return &state;
  }
  return nullptr;
}

void ChurnSchedule::register_seed_expression(std::string_view list,
                                             std::string_view expression) {
  if (ListState* state = find(list)) {
    state->live.emplace_back(expression);
  }
}

std::size_t ChurnSchedule::draw_count(double expected) {
  if (expected <= 0.0) return 0;
  auto count = static_cast<std::size_t>(expected);
  if (rng_.next_bool(expected - static_cast<double>(count))) ++count;
  return count;
}

ChurnSchedule::EpochPlan ChurnSchedule::plan_epoch(std::uint64_t epoch) {
  EpochPlan plan;
  plan.epoch = epoch;
  plan.lists.reserve(lists_.size());

  for (auto& state : lists_) {
    ListPlan list_plan;
    list_plan.list = state.name;

    // Retire the oldest live entries first: the aging FIFO that makes
    // day-zero crawl knowledge decay (Section 7.1).
    const double live = static_cast<double>(state.live.size());
    const std::size_t removals = std::min(
        state.live.size(), draw_count(live * config_.remove_rate));
    list_plan.remove_expressions.reserve(removals);
    for (std::size_t i = 0; i < removals; ++i) {
      list_plan.remove_expressions.push_back(std::move(state.live.front()));
      state.live.pop_front();
    }

    // Fresh adds, rate-proportional to the size ENTERING the epoch (the
    // same basis analysis::fit_churn_rates divides by, so fitted rates
    // round-trip). An empty list still accrues entries at the rate.
    const std::size_t adds = std::min(
        config_.max_epoch_adds,
        draw_count(std::max(live, 1.0) * config_.add_rate));
    list_plan.add_expressions.reserve(adds);
    for (std::size_t i = 0; i < adds; ++i) {
      std::string expression =
          "churn" + std::to_string(expression_counter_++) + ".sim.example/";
      state.live.push_back(expression);
      list_plan.add_expressions.push_back(std::move(expression));
    }

    plan.lists.push_back(std::move(list_plan));
  }

  for (const PrefixInjection& injection : config_.injections) {
    if (injection.epoch != epoch) continue;
    PrefixInjection resolved = injection;
    if (resolved.list.empty() && !lists_.empty()) {
      resolved.list = lists_.front().name;
    }
    // NOT entered into any live FIFO: the attacker keeps it listed.
    plan.injections.push_back(std::move(resolved));
  }
  return plan;
}

}  // namespace sbp::sim
