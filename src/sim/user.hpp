// Per-user simulation state and the per-tick browsing schedule (src/sim).
//
// Each synthetic user owns an independent RNG stream (forked from the
// engine seed), a real sb::Client with its own local stores / full-hash
// cache / backoff state, and a small browsing memory. Behaviour per tick:
//
//   idle   --session_start_probability-->  browsing
//   browsing: `lookups_per_active_tick` lookups, each either a revisit of
//             recent history, an interest-target visit (interested users
//             only), or a fresh power-law draw from the TrafficModel;
//   browsing --1-session_continue_probability--> idle.
//
// All decisions consume only the user's own stream, so populations are
// deterministic regardless of how the engine shards or batches them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sb/protocol.hpp"
#include "sim/config.hpp"
#include "sim/traffic_model.hpp"
#include "util/rng.hpp"

namespace sbp::sim {

struct UserState {
  sb::Cookie cookie = 0;
  util::Rng rng{0};
  bool interested = false;  ///< member of the tracked interest group
  bool in_session = false;
  /// Set by the engine: the user's store is exact (a v3/v4 client, not a
  /// Bloom store), so the listed-prefix universe prefilter applies and a
  /// URL with no listed prefix is answered without touching the client.
  bool exact_store = false;
  /// Ring buffer of recently visited ids (revisit locality).
  std::vector<TrafficModel::VisitId> history;
  std::size_t history_next = 0;
  /// The user's Safe Browsing stack -- any protocol generation
  /// (sb/protocol.hpp); populations can mix generations.
  std::unique_ptr<sb::ProtocolClient> client;
};

/// Plans one tick of browsing for `user`: appends the visits' ids to
/// `visits` and returns how many of them are interest-target visits.
/// Advances session state and history deterministically from user.rng.
/// No URL string is built: TrafficModel::url_of() turns an id into its URL
/// where the URL is consumed.
std::size_t plan_user_tick(UserState& user, const TrafficConfig& traffic,
                           const TrafficModel& model,
                           std::vector<TrafficModel::VisitId>& visits);

}  // namespace sbp::sim
