#include "sb/protocol_v4.hpp"

#include <algorithm>

namespace sbp::sb {

V4SlicedProtocol::V4SlicedProtocol(Transport& transport, ClientConfig config)
    : PrefixProtocolClient(transport, config),
      update_backoff_(config.backoff, config.cookie) {}

void V4SlicedProtocol::subscribe(std::string_view list_name) {
  for (const auto& state : lists_) {
    if (state.name == list_name) return;
  }
  ListState state;
  state.name = std::string(list_name);
  lists_.push_back(std::move(state));
}

bool V4SlicedProtocol::update() {
  ++metrics_.updates_attempted;
  const std::uint64_t now = transport_.clock().now();
  if (!update_backoff_.can_request(now)) {
    ++metrics_.backoff_suppressed;
    return false;
  }

  // Rebuilt in place every update: one request per thread, so a warm
  // re-sync allocates nothing and no client carries a request of its own.
  thread_local V4UpdateRequest request;
  request.lists.resize(lists_.size());
  for (std::size_t i = 0; i < lists_.size(); ++i) {
    request.lists[i].list_name = lists_[i].name;
    request.lists[i].state = lists_[i].state;
  }

  const SharedV4Update response = transport_.fetch_v4_update_shared(request);
  if (!response.value) {
    ++metrics_.updates_failed;
    update_backoff_.on_error(transport_.clock().now());
    return false;
  }
  // Honor the server-set minimum wait before the next update.
  update_backoff_.on_success(transport_.clock().now(),
                             response.value->minimum_wait);

  bool all_applied = true;
  for (const auto& slice : response.value->lists) {
    for (auto& state : lists_) {
      if (state.name != slice.list_name) continue;
      // Moved in: with no shared cache the old state is freed once applied.
      state.store = config_.sync_states
                        ? config_.sync_states->next_v4(std::move(state.store),
                                                       response, slice)
                        : apply_v4(std::move(state.store), slice);
      if (!state.store || state.store->checksum() != slice.checksum) {
        // Desynchronized: discard local state so the next update performs
        // a full resync (the Update API's recovery discipline). The shared
        // state itself is untouched: only this client lets go of it.
        state.store.reset();
        state.state = 0;
        ++metrics_.updates_failed;
        all_applied = false;
      } else {
        state.state = slice.new_state;
      }
    }
  }
  cache_.clear();  // an update discards cached full digests
  return all_applied;
}

void V4SlicedProtocol::local_contains_many(
    std::span<const crypto::Prefix32> prefixes, std::span<bool> out) const {
  or_list_stores(
      lists_,
      [](const ListState& state) { return state.store.get(); },
      prefixes, out);
}

std::size_t V4SlicedProtocol::local_prefix_count() const noexcept {
  std::size_t total = 0;
  for (const auto& state : lists_) {
    if (state.store) total += state.store->size();
  }
  return total;
}

std::size_t V4SlicedProtocol::local_store_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& state : lists_) {
    if (state.store) total += state.store->memory_bytes();
  }
  return total;
}

std::uint64_t V4SlicedProtocol::list_state(std::string_view list_name) const {
  for (const auto& state : lists_) {
    if (state.name == list_name) return state.state;
  }
  return 0;
}

std::uint32_t V4SlicedProtocol::list_checksum(
    std::string_view list_name) const {
  for (const auto& state : lists_) {
    if (state.name != list_name) continue;
    return state.store ? state.store->checksum()
                       : storage::RawHashStore::checksum_of({});
  }
  return 0;
}

V4State V4SlicedProtocol::synced_state(std::string_view list_name) const {
  for (const auto& state : lists_) {
    if (state.name == list_name) return state.store;
  }
  return nullptr;
}

}  // namespace sbp::sb
