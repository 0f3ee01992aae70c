#include "sb/protocol.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <span>

#include "sb/client.hpp"
#include "sb/lookup_api.hpp"
#include "sb/protocol_v4.hpp"
#include "url/decompose.hpp"

namespace sbp::sb {

LookupResult PrefixProtocolClient::lookup(const LookupRequest& request) {
  ++metrics_.lookups;
  LookupResult result;

  if (!request.valid()) {
    result.verdict = Verdict::kInvalid;
    return result;
  }

  // One batched local-store probe across every decomposition prefix (the
  // request pre-computed digests and prefixes; see sb/lookup_request.hpp).
  // A request holds at most url::kMaxDecompositions expressions, so the
  // flags and hits live on the stack.
  const auto prefixes = request.prefixes();
  const auto digests = request.digests();
  const std::size_t n = prefixes.size();
  std::array<bool, url::kMaxDecompositions> flags;
  local_contains_many(prefixes, std::span<bool>(flags.data(), n));

  // A hit is a decomposition index: the expression string is built only
  // for a confirmed verdict.
  std::array<std::size_t, url::kMaxDecompositions> hit_slots;
  std::size_t hit_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!flags[i]) continue;
    // Multiple decompositions can share a prefix; keep each digest.
    hit_slots[hit_count++] = i;
    if (std::find(result.local_hits.begin(), result.local_hits.end(),
                  prefixes[i]) == result.local_hits.end()) {
      result.local_hits.push_back(prefixes[i]);
    }
  }
  const std::span<const std::size_t> hits(hit_slots.data(), hit_count);

  if (hits.empty()) {
    result.verdict = Verdict::kSafe;  // a miss proves the URL is not listed
    return result;
  }
  ++metrics_.local_hits;

  // Resolve each hit prefix to (list, digest) entries: from cache when
  // fresh, otherwise batched into one server request.
  const std::uint64_t now = transport_.clock().now();
  std::map<crypto::Prefix32, std::vector<storage::FullHashEntry>> resolved;
  std::vector<crypto::Prefix32> to_fetch;
  for (const auto prefix : result.local_hits) {
    if (auto cached = cache_.get(prefix, now)) {
      resolved[prefix] = std::move(*cached);
    } else if (std::find(to_fetch.begin(), to_fetch.end(), prefix) ==
               to_fetch.end()) {
      to_fetch.push_back(prefix);
    }
  }

  if (to_fetch.empty()) {
    result.answered_from_cache = true;
    ++metrics_.cache_answers;
  } else if (!full_hash_backoff_.can_request(now)) {
    // Backoff forbids contacting the server: fail open, leave the prefixes
    // unresolved (they stay out of the cache and will be retried).
    ++metrics_.backoff_suppressed;
    result.unconfirmed = true;
    result.verdict = Verdict::kSafe;
    return result;
  } else {
    ++metrics_.full_hash_requests;
    if (to_fetch.size() >= 2) ++metrics_.multi_prefix_lookups;
    result.sent_prefixes = to_fetch;
    const auto response =
        transport_.get_full_hashes_or_error(to_fetch, config_.cookie);
    const std::uint64_t arrival = transport_.clock().now();
    if (!response) {
      ++metrics_.network_errors;
      full_hash_backoff_.on_error(arrival);
      result.sent_prefixes.clear();  // never reached the server
      result.unconfirmed = true;
      result.verdict = Verdict::kSafe;  // fail open
      return result;
    }
    full_hash_backoff_.on_success(arrival);
    for (const auto& [prefix, matches] : response->matches) {
      std::vector<storage::FullHashEntry> entries;
      entries.reserve(matches.size());
      for (const auto& match : matches) {
        entries.push_back({match.list_name, match.digest});
      }
      cache_.put(prefix, entries, arrival);
      resolved[prefix] = std::move(entries);
    }
  }

  // Verdict: some decomposition's full digest appears among the resolved
  // entries for its prefix. The matching entry carries the list tag, so
  // reporting needs nothing beyond what crossed the wire (entries are in
  // server response order: ascending list name).
  for (const std::size_t hit : hits) {
    const auto it = resolved.find(prefixes[hit]);
    if (it == resolved.end()) continue;
    for (const auto& entry : it->second) {
      if (entry.digest != digests[hit]) continue;
      result.verdict = Verdict::kMalicious;
      result.matched_expression = request.expression(hit);
      result.matched_list = entry.list_name;
      ++metrics_.malicious_verdicts;
      return result;
    }
  }
  result.verdict = Verdict::kSafe;  // false positive eliminated
  return result;
}

std::unique_ptr<ProtocolClient> make_protocol_client(Transport& transport,
                                                     ClientConfig config) {
  switch (config.protocol) {
    case ProtocolVersion::kV1Lookup:
      return std::make_unique<V1LookupProtocol>(transport, config);
    case ProtocolVersion::kV3Chunked:
      return std::make_unique<Client>(transport, config);
    case ProtocolVersion::kV4Sliced:
      return std::make_unique<V4SlicedProtocol>(transport, config);
  }
  return std::make_unique<Client>(transport, config);
}

}  // namespace sbp::sb
