#include "mitigation/one_prefix.hpp"

#include <algorithm>

#include "crypto/digest.hpp"
#include "url/decompose.hpp"

namespace sbp::mitigation {

OnePrefixResult OnePrefixClient::lookup(
    std::string_view url, const std::vector<std::string>& site_urls) {
  OnePrefixResult result;

  const auto canonical = url::canonicalize(url);
  if (!canonical) return result;

  const auto decompositions = url::decompose(*canonical);
  struct Hit {
    const url::Decomposition* decomposition;
    crypto::Digest256 digest;
    crypto::Prefix32 prefix;
  };
  std::vector<Hit> hits;
  for (const auto& d : decompositions) {
    crypto::Digest256 digest = crypto::Digest256::of(d.expression);
    const crypto::Prefix32 prefix = digest.prefix32();
    if (client_.local_contains(prefix)) {
      hits.push_back({&d, digest, prefix});
    }
  }
  if (hits.empty()) {
    result.verdict = sb::Verdict::kSafe;
    return result;
  }

  // Root-most hit: the shortest expression (fewest path components, highest
  // host level) -- the root node of the decomposition lattice.
  auto root_it = std::min_element(
      hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
        return a.decomposition->expression.size() <
               b.decomposition->expression.size();
      });

  // Whether the server confirmed `hit`; a failed request sets
  // result.unconfirmed instead, and the lookup stops.
  auto query_one = [&](const Hit& hit) -> bool {
    const auto response =
        transport_.get_full_hashes_or_error({hit.prefix}, client_.cookie());
    if (!response) {
      result.unconfirmed = true;
      return false;
    }
    result.sent_prefixes.push_back(hit.prefix);
    const auto it = response->matches.find(hit.prefix);
    if (it == response->matches.end()) return false;
    return std::any_of(it->second.begin(), it->second.end(),
                       [&hit](const sb::FullHashMatch& match) {
                         return match.digest == hit.digest;
                       });
  };

  // Step 1: query only the root prefix.
  if (query_one(*root_it)) {
    result.verdict = sb::Verdict::kMalicious;
    result.resolved_by_root_query = true;
    return result;
  }
  if (result.unconfirmed || hits.size() == 1) {
    result.verdict = sb::Verdict::kSafe;
    return result;
  }

  // Step 2: pre-fetch crawl -- does the site contain Type I URLs for the
  // target? If not, escalating would let the server re-identify the exact
  // URL, so the mitigation suppresses it (after warning the user).
  const corpus::DomainHierarchy hierarchy(site_urls);
  const auto colliders =
      hierarchy.type1_colliders(canonical->expression());
  if (colliders.empty()) {
    result.escalation_suppressed = true;
    result.verdict = sb::Verdict::kSafe;  // conservative: no confirmation
    return result;
  }

  // Step 3: safe to escalate -- the server can only recover the domain.
  for (const auto& hit : hits) {
    if (&hit == &*root_it) continue;
    if (query_one(hit)) {
      result.verdict = sb::Verdict::kMalicious;
      return result;
    }
    if (result.unconfirmed) break;
  }
  result.verdict = sb::Verdict::kSafe;
  return result;
}

}  // namespace sbp::mitigation
