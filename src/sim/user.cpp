#include "sim/user.hpp"

namespace sbp::sim {

namespace {

void remember(UserState& user, const TrafficConfig& traffic,
              TrafficModel::VisitId visit) {
  if (traffic.revisit_window == 0) return;
  if (user.history.size() < traffic.revisit_window) {
    user.history.push_back(visit);
    return;
  }
  user.history[user.history_next] = visit;
  user.history_next = (user.history_next + 1) % user.history.size();
}

}  // namespace

std::size_t plan_user_tick(UserState& user, const TrafficConfig& traffic,
                           const TrafficModel& model,
                           std::vector<TrafficModel::VisitId>& visits) {
  if (!user.in_session) {
    if (!user.rng.next_bool(traffic.session_start_probability)) return 0;
    user.in_session = true;
  }

  std::size_t target_visits = 0;
  for (std::size_t i = 0; i < traffic.lookups_per_active_tick; ++i) {
    if (user.interested && !traffic.target_urls.empty() &&
        user.rng.next_bool(traffic.target_visit_probability)) {
      const TrafficModel::VisitId target = model.target_visit(
          user.rng.next_below(traffic.target_urls.size()));
      visits.push_back(target);
      remember(user, traffic, target);
      ++target_visits;
      continue;
    }
    if (!user.history.empty() &&
        user.rng.next_bool(traffic.revisit_probability)) {
      visits.push_back(user.history[user.rng.next_below(user.history.size())]);
      continue;  // a revisit does not refresh the history slot
    }
    const TrafficModel::VisitId page = model.sample_page(user.rng);
    visits.push_back(page);
    remember(user, traffic, page);
  }

  if (!user.rng.next_bool(traffic.session_continue_probability)) {
    user.in_session = false;
  }
  return target_visits;
}

}  // namespace sbp::sim
