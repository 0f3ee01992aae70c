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

template <typename Sync>
PrefixProtocolClient<Sync>::PrefixProtocolClient(Transport& transport,
                                                 ClientConfig config)
    : ProtocolClient(transport, config),
      cache_(config.full_hash_ttl),
      full_hash_backoff_(config.backoff, config.cookie ^ 0x5B5B5B5B),
      update_backoff_(config.backoff, config.cookie) {}

template <typename Sync>
void PrefixProtocolClient<Sync>::subscribe(std::string_view list_name) {
  if (find_list(list_name) == nullptr) {
    lists_.push_back({std::string(list_name), nullptr, 0});
  }
}

template <typename Sync>
bool PrefixProtocolClient<Sync>::update() {
  ++metrics_.updates_attempted;
  const std::uint64_t now = transport_.clock().now();
  if (!update_backoff_.can_request(now)) {
    ++metrics_.backoff_suppressed;
    return false;
  }

  // Rebuilt in place every update: one request per thread and generation,
  // so a warm re-sync allocates nothing and no client carries a request of
  // its own.
  thread_local typename Sync::Request request;
  request.lists.resize(lists_.size());
  for (std::size_t i = 0; i < lists_.size(); ++i) {
    request.lists[i].list_name = lists_[i].name;
    Sync::fill(request.lists[i], lists_[i]);
  }

  const auto response = Sync::fetch(transport_, request);
  if (!response.value) {
    ++metrics_.updates_failed;
    update_backoff_.on_error(transport_.clock().now());
    return false;
  }
  update_backoff_.on_success(transport_.clock().now(),
                             Sync::wait(*response.value));

  bool all_applied = true;
  for (const auto& update : response.value->lists) {
    for (auto& list : lists_) {
      if (list.name != update.list_name) continue;
      if (!Sync::apply(list, response, update, config_)) {
        ++metrics_.updates_failed;
        all_applied = false;
      }
    }
  }
  cache_.clear();  // an update discards cached full digests
  return all_applied;
}

template <typename Sync>
void PrefixProtocolClient<Sync>::local_contains_many(
    std::span<const crypto::Prefix32> prefixes, std::span<bool> out) const {
  const std::size_t n = prefixes.size();
  std::fill(out.begin(), out.begin() + n, false);
  bool tmp[64];
  for (const auto& list : lists_) {
    const auto* store = Sync::store(list.synced);
    if (store == nullptr) continue;
    for (std::size_t base = 0; base < n; base += 64) {
      const std::size_t count = std::min<std::size_t>(64, n - base);
      store->contains_many32(prefixes.subspan(base, count),
                             std::span<bool>(tmp, count));
      for (std::size_t i = 0; i < count; ++i) {
        out[base + i] = out[base + i] || tmp[i];
      }
    }
  }
}

template <typename Sync>
std::size_t PrefixProtocolClient<Sync>::local_prefix_count() const noexcept {
  std::size_t total = 0;
  for (const auto& list : lists_) {
    if (const auto* store = Sync::store(list.synced)) total += store->size();
  }
  return total;
}

template <typename Sync>
std::size_t PrefixProtocolClient<Sync>::local_store_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& list : lists_) {
    if (const auto* store = Sync::store(list.synced)) {
      total += store->memory_bytes();
    }
  }
  return total;
}

template <typename Sync>
auto PrefixProtocolClient<Sync>::synced_state(std::string_view list_name) const
    -> State {
  const auto* list = find_list(list_name);
  return list ? list->synced : nullptr;
}

template <typename Sync>
auto PrefixProtocolClient<Sync>::find_list(std::string_view list_name) const
    -> const SyncedList<State>* {
  for (const auto& list : lists_) {
    if (list.name == list_name) return &list;
  }
  return nullptr;
}

template <typename Sync>
LookupResult PrefixProtocolClient<Sync>::lookup(const LookupRequest& request) {
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

template class PrefixProtocolClient<V3Sync>;
template class PrefixProtocolClient<V4Sync>;

}  // namespace sbp::sb
