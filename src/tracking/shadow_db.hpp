// The provider's shadow database and server-side detector (Section 6.3).
//
// "First, Google and Yandex choose the parameter delta >= 2, and build a
// shadow database of prefixes corresponding to at most delta decompositions
// of the targeted URLs. Second, they insert/push those prefixes in the
// client's database. Google and Yandex can identify individuals (using the
// SB cookie) each time their servers receive a query with at least two
// prefixes present in the shadow database."
//
// ShadowDatabase stores the TrackingPlans; its detector scans a Server
// query log and emits (cookie, target, tick) detections when a single query
// carries >= 2 prefixes of one plan.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sb/server.hpp"
#include "tracking/algorithm1.hpp"

namespace sbp::tracking {

struct Detection {
  std::uint64_t tick = 0;
  sb::Cookie cookie = 0;
  std::string target_url;
  TrackingPrecision precision = TrackingPrecision::kExactUrl;
  std::size_t matched_prefixes = 0;
};

class ShadowDatabase {
 public:
  /// Registers a plan and pushes its prefixes into the given server list
  /// (the "insert/push those prefixes in the client's database" step: the
  /// client will pick them up on its next update). Expressions with real
  /// digests are added so the client's full-hash checks behave normally.
  void deploy(const TrackingPlan& plan, sb::Server& server,
              const std::string& list_name);

  /// Registers a plan without touching any server (for offline analysis).
  void add_plan(const TrackingPlan& plan);

  [[nodiscard]] const std::vector<TrackingPlan>& plans() const noexcept {
    return plans_;
  }

  /// Scans a query log: a detection fires when one query contains >= 2
  /// prefixes belonging to the same plan (the paper's detection rule).
  [[nodiscard]] std::vector<Detection> detect(
      const std::vector<sb::QueryLogEntry>& log) const;

 private:
  std::vector<TrackingPlan> plans_;
  /// prefix -> plan indexes containing it.
  std::unordered_map<crypto::Prefix32, std::vector<std::uint32_t>> index_;
};

}  // namespace sbp::tracking
