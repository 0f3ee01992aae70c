#include "sb/client.hpp"

#include <algorithm>

namespace sbp::sb {

Client::Client(Transport& transport, ClientConfig config)
    : PrefixProtocolClient(transport, config),
      update_backoff_(config.backoff, config.cookie) {}

void Client::subscribe(std::string_view list_name) {
  for (const auto& state : lists_) {
    if (state.name == list_name) return;
  }
  ListState state;
  state.name = std::string(list_name);
  lists_.push_back(std::move(state));
}

bool Client::update() {
  ++metrics_.updates_attempted;
  const std::uint64_t now = transport_.clock().now();
  if (!update_backoff_.can_request(now)) {
    ++metrics_.backoff_suppressed;
    return false;
  }

  // Rebuilt in place every update: one request per thread, so a warm
  // re-sync allocates nothing and no client carries a request of its own.
  thread_local UpdateRequest request;
  request.lists.resize(lists_.size());
  for (std::size_t i = 0; i < lists_.size(); ++i) {
    const ListState& state = lists_[i];
    UpdateRequest::ListState& list_state = request.lists[i];
    list_state.list_name = state.name;
    list_state.add_chunks.clear();
    list_state.sub_chunks.clear();
    if (state.synced) {
      for (const Chunk& c : state.synced->chunks.adds()) {
        list_state.add_chunks.push_back(c.number);
      }
      for (const Chunk& c : state.synced->chunks.subs()) {
        list_state.sub_chunks.push_back(c.number);
      }
    }
  }

  const SharedUpdate response = transport_.fetch_update_shared(request);
  if (!response.value) {
    ++metrics_.updates_failed;
    update_backoff_.on_error(transport_.clock().now());
    return false;
  }
  update_backoff_.on_success(transport_.clock().now(),
                             response.value->next_update_after);
  for (const auto& update : response.value->lists) {
    for (auto& state : lists_) {
      if (state.name != update.list_name) continue;
      // Moved in: with no shared cache the old state is freed once applied.
      state.synced =
          config_.sync_states
              ? config_.sync_states->next_v3(std::move(state.synced), response,
                                             update, config_.store_kind,
                                             config_.bloom_bits)
              : apply_v3(std::move(state.synced), update, config_.store_kind,
                         config_.bloom_bits);
    }
  }
  cache_.clear();  // an update discards cached full digests
  return true;
}

void Client::local_contains_many(std::span<const crypto::Prefix32> prefixes,
                                 std::span<bool> out) const {
  or_list_stores(
      lists_,
      [](const ListState& state) -> const storage::PrefixStore* {
        return state.synced ? state.synced->store.get() : nullptr;
      },
      prefixes, out);
}

std::size_t Client::local_prefix_count() const noexcept {
  std::size_t total = 0;
  for (const auto& state : lists_) {
    if (state.synced) total += state.synced->store->size();
  }
  return total;
}

std::size_t Client::local_store_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& state : lists_) {
    if (state.synced) total += state.synced->store->memory_bytes();
  }
  return total;
}

V3State Client::synced_state(std::string_view list_name) const {
  for (const auto& state : lists_) {
    if (state.name == list_name) return state.synced;
  }
  return nullptr;
}

}  // namespace sbp::sb
