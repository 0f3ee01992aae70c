#include "obs/phase.hpp"

#include <chrono>

namespace sbp::obs {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string_view phase_name(Phase phase) noexcept {
  switch (phase) {
    case Phase::kPlan:
      return "plan";
    case Phase::kLookup:
      return "lookup";
    case Phase::kResync:
      return "resync";
    case Phase::kChurnEpoch:
      return "churn_epoch";
    case Phase::kLogDrain:
      return "log_drain";
    case Phase::kParallelTick:
      return "parallel_tick";
    case Phase::kSite:
      return "site";
    case Phase::kUrlBuild:
      return "url_build";
    case Phase::kCount:
      break;
  }
  return "unknown";
}

std::string_view channel_name(Channel channel) noexcept {
  switch (channel) {
    case Channel::kFullHash:
      return "full_hash";
    case Channel::kV3Update:
      return "v3_update";
    case Channel::kV4Update:
      return "v4_update";
    case Channel::kV1Lookup:
      return "v1_lookup";
    case Channel::kCount:
      break;
  }
  return "unknown";
}

}  // namespace sbp::obs
