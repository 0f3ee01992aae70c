#include "sb/server.hpp"

#include <algorithm>

#include "sb/wire/frames.hpp"
#include "storage/raw_hash_store.hpp"
#include "url/decompose.hpp"

namespace sbp::sb {

thread_local QueryLogBuffer* Server::active_log_buffer_ = nullptr;

Server::ScopedLogShard::ScopedLogShard(QueryLogBuffer& buffer) noexcept
    : previous_(active_log_buffer_) {
  active_log_buffer_ = &buffer;
}

Server::ScopedLogShard::~ScopedLogShard() { active_log_buffer_ = previous_; }

void Server::drain_log_buffer(QueryLogBuffer& buffer) {
  for (auto& entry : buffer.entries_) {
    if (sink_ != nullptr) sink_->record(entry);
    if (retain_query_log_) query_log_.push_back(std::move(entry));
  }
  buffer.entries_.clear();
  update_encode_cache_hits_ += buffer.update_encode_cache_hits_;
  buffer.update_encode_cache_hits_ = 0;
}

Server::ListData& Server::list(std::string_view name) {
  const auto it = lists_.find(name);
  if (it != lists_.end()) return it->second;
  return lists_.emplace(std::string(name), ListData{}).first->second;
}

const Server::ListData* Server::find(std::string_view name) const {
  const auto it = lists_.find(name);
  return it == lists_.end() ? nullptr : &it->second;
}

void Server::create_list(std::string_view name) { (void)list(name); }

void Server::add_digest(std::string_view list_name,
                        const crypto::Digest256& digest) {
  ListData& data = list(list_name);
  const crypto::Prefix32 prefix = digest.prefix32();
  auto& bucket = data.digests_by_prefix[prefix];
  if (std::find(bucket.begin(), bucket.end(), digest) == bucket.end()) {
    bucket.push_back(digest);
  }
  data.open_chunk.prefixes.push_back(prefix);
  update_cache_.clear();
}

void Server::add_expression(std::string_view list_name,
                            std::string_view expression) {
  add_digest(list_name, crypto::Digest256::of(expression));
}

void Server::add_orphan_prefix(std::string_view list_name,
                               crypto::Prefix32 prefix) {
  ListData& data = list(list_name);
  data.digests_by_prefix.try_emplace(prefix);  // empty digest vector
  data.open_chunk.prefixes.push_back(prefix);
  update_cache_.clear();
}

void Server::remove_expression(std::string_view list_name,
                               std::string_view expression) {
  remove_expressions(list_name, {std::string(expression)});
}

void Server::remove_expressions(std::string_view list_name,
                                const std::vector<std::string>& expressions) {
  if (expressions.empty()) return;
  ListData& data = list(list_name);
  std::vector<crypto::Prefix32> revoked;
  bool mutated = false;
  for (const auto& expression : expressions) {
    const crypto::Digest256 digest = crypto::Digest256::of(expression);
    const crypto::Prefix32 prefix = digest.prefix32();
    const auto it = data.digests_by_prefix.find(prefix);
    if (it == data.digests_by_prefix.end()) continue;
    mutated = true;
    auto& bucket = it->second;
    bucket.erase(std::remove(bucket.begin(), bucket.end(), digest),
                 bucket.end());
    if (bucket.empty()) {
      data.digests_by_prefix.erase(it);
      revoked.push_back(prefix);
    }
    // If other digests share the prefix, the prefix must stay published.
  }
  if (mutated) update_cache_.clear();
  if (!revoked.empty()) {
    // Revoke the batch via one sub chunk (sealed immediately; any open
    // adds seal first so chunk numbering reflects mutation order).
    seal(data);
    Chunk sub;
    sub.type = ChunkType::kSub;
    sub.number = data.next_chunk_number++;
    std::sort(revoked.begin(), revoked.end());
    revoked.erase(std::unique(revoked.begin(), revoked.end()), revoked.end());
    sub.prefixes = std::move(revoked);
    data.chunks.apply(sub);
  }
}

void Server::seal(ListData& data) {
  if (data.open_chunk.prefixes.empty()) return;
  // A real seal bumps the chunk sequence, changing every update diff.
  // (The adds that filled the open chunk already cleared the cache; this
  // keeps seal safe on its own too.)
  update_cache_.clear();
  Chunk chunk = std::move(data.open_chunk);
  chunk.type = ChunkType::kAdd;
  chunk.number = data.next_chunk_number++;
  // Deduplicate within the chunk.
  std::sort(chunk.prefixes.begin(), chunk.prefixes.end());
  chunk.prefixes.erase(
      std::unique(chunk.prefixes.begin(), chunk.prefixes.end()),
      chunk.prefixes.end());
  data.chunks.apply(chunk);
  data.open_chunk = Chunk{};
}

void Server::seal_chunk(std::string_view list_name) {
  seal(list(list_name));
}

void Server::log_query(QueryLogEntry entry) {
  if (active_log_buffer_ != nullptr) {
    active_log_buffer_->entries_.push_back(std::move(entry));
    return;
  }
  if (sink_ == nullptr && !retain_query_log_) return;
  if (sink_ != nullptr) sink_->record(entry);
  if (retain_query_log_) query_log_.push_back(std::move(entry));
}

bool Server::lookup_v1(std::string_view url, Cookie cookie,
                       std::uint64_t tick) {
  QueryLogEntry entry;
  entry.tick = tick;
  entry.cookie = cookie;
  entry.url = std::string(url);

  const auto listed = [this](const crypto::Digest256& digest) {
    for (const auto& [name, data] : lists_) {
      const auto it = data.digests_by_prefix.find(digest.prefix32());
      if (it != data.digests_by_prefix.end() &&
          std::find(it->second.begin(), it->second.end(), digest) !=
              it->second.end()) {
        return true;
      }
    }
    return false;
  };
  bool malicious = false;
  for (const auto& d : url::decompose(url)) {
    const crypto::Digest256 digest = crypto::Digest256::of(d.expression);
    const crypto::Prefix32 prefix = digest.prefix32();
    if (std::find(entry.prefixes.begin(), entry.prefixes.end(), prefix) ==
        entry.prefixes.end()) {
      entry.prefixes.push_back(prefix);
    }
    malicious = malicious || listed(digest);
  }
  log_query(std::move(entry));
  return malicious;
}

V4UpdateResponse Server::fetch_v4_update(const V4UpdateRequest& request) {
  V4UpdateResponse response;
  response.minimum_wait = minimum_wait_;
  for (const auto& state : request.lists) {
    const auto it = lists_.find(state.list_name);
    if (it == lists_.end()) continue;
    ListData& data = it->second;
    seal(data);

    const std::uint64_t new_state = data.next_chunk_number;
    if (state.state == new_state) continue;  // already current

    V4SliceUpdate slice;
    slice.list_name = state.list_name;
    slice.new_state = new_state;
    const std::vector<crypto::Prefix32> current =
        data.chunks.effective_prefixes();

    if (state.state == 0 || state.state > new_state) {
      // Unknown or future state: ship the whole set.
      slice.full_reset = true;
      slice.additions = current;
    } else {
      // Two-pointer diff of the client's old sorted set vs the current
      // one: removals as indices into the old set, additions as values.
      const std::vector<crypto::Prefix32> old = data.chunks.effective_prefixes(
          static_cast<std::uint32_t>(state.state));
      std::size_t i = 0, j = 0;
      while (i < old.size() || j < current.size()) {
        if (j == current.size() || (i < old.size() && old[i] < current[j])) {
          slice.removal_indices.push_back(static_cast<std::uint32_t>(i));
          ++i;
        } else if (i == old.size() || current[j] < old[i]) {
          slice.additions.push_back(current[j]);
          ++j;
        } else {
          ++i;
          ++j;
        }
      }
    }
    slice.checksum = storage::RawHashStore::checksum_of(current);
    response.lists.push_back(std::move(slice));
  }
  return response;
}

UpdateResponse Server::fetch_update(const UpdateRequest& request) {
  UpdateResponse response;
  response.next_update_after = minimum_wait_;
  for (const auto& state : request.lists) {
    const auto it = lists_.find(state.list_name);
    if (it == lists_.end()) continue;
    ListData& data = it->second;
    seal(data);

    UpdateResponse::ListUpdate update;
    update.list_name = state.list_name;
    // Send every sealed chunk the client does not advertise. The client
    // state vectors are small in practice (tens of chunks).
    auto missing = [](const std::vector<std::uint32_t>& have,
                      std::uint32_t number) {
      return std::find(have.begin(), have.end(), number) == have.end();
    };
    for (std::uint32_t n = 1; n < data.next_chunk_number; ++n) {
      for (const ChunkType type : {ChunkType::kAdd, ChunkType::kSub}) {
        const Chunk* chunk = data.chunks.find_chunk(n, type);
        if (chunk == nullptr) continue;
        const auto& have = (type == ChunkType::kAdd) ? state.add_chunks
                                                     : state.sub_chunks;
        if (!missing(have, n)) continue;
        update.chunks.push_back(*chunk);
      }
    }
    if (!update.chunks.empty()) {
      response.lists.push_back(std::move(update));
    }
  }
  return response;
}

namespace {

ResponseFrame share(std::vector<std::uint8_t> frame) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(frame));
}

}  // namespace

template <typename Serve>
ResponseFrame Server::serve_cached_update(
    const std::vector<std::uint8_t>& request_frame, Serve&& serve) {
  // Probe with a view of the frame bytes (transparent hash): a hit
  // allocates nothing; only a miss materializes the key. A live entry
  // means no mutation (and so no pending open chunk) happened since it
  // was stored, so the seal inside fetch_* would have been a no-op and
  // the response identical: a hit may skip fetch_*.
  const std::string_view key(
      reinterpret_cast<const char*>(request_frame.data()),
      request_frame.size());
  // An engine worker counts its lock-free hit in its own shard buffer.
  if (active_log_buffer_ != nullptr) {
    if (const ResponseFrame* cached = update_cache_.find(key)) {
      ++active_log_buffer_->update_encode_cache_hits_;
      return *cached;
    }
  }
  // Everything else serializes here: for each distinct request frame
  // exactly ONE caller encodes (a miss) and every other sees the cached
  // bytes (hits) -- the hit/miss totals are independent of arrival order,
  // keeping metrics thread-count-invariant. fetch_* may seal, which
  // clears the cache; the entry stored after it describes the post-seal
  // state it was computed from.
  return update_cache_.get_or_build(
      key, [](const ResponseFrame&) { return true; }, serve);
}

ResponseFrame Server::serve_frame(
    const std::vector<std::uint8_t>& request_frame, std::uint64_t tick) {
  if (request_frame.empty()) return nullptr;
  switch (static_cast<wire::FrameType>(request_frame[0])) {
    case wire::FrameType::kFullHashRequest: {
      const auto request = wire::decode_full_hash_request(request_frame);
      if (!request) return nullptr;
      return share(wire::encode_full_hash_response(
          get_full_hashes(request->prefixes, request->cookie, tick)));
    }
    case wire::FrameType::kV1LookupRequest: {
      const auto request = wire::decode_v1_lookup_request(request_frame);
      if (!request) return nullptr;
      return share(wire::encode_v1_lookup_response(
          {lookup_v1(request->url, request->cookie, tick)}));
    }
    case wire::FrameType::kUpdateRequest:
      return serve_cached_update(
          request_frame, [&]() -> std::optional<ResponseFrame> {
            const auto request = wire::decode_update_request(request_frame);
            if (!request) return std::nullopt;
            return share(wire::encode_update_response(fetch_update(*request)));
          });
    case wire::FrameType::kV4UpdateRequest:
      return serve_cached_update(
          request_frame, [&]() -> std::optional<ResponseFrame> {
            const auto request = wire::decode_v4_update_request(request_frame);
            if (!request) return std::nullopt;
            return share(
                wire::encode_v4_update_response(fetch_v4_update(*request)));
          });
    default:
      return nullptr;  // response tags and unknown bytes
  }
}

FullHashResponse Server::get_full_hashes(
    const std::vector<crypto::Prefix32>& prefixes, Cookie cookie,
    std::uint64_t tick) {
  log_query(QueryLogEntry{tick, cookie, prefixes, /*url=*/{}});
  FullHashResponse response;
  for (const auto prefix : prefixes) {
    const auto [slot, fresh] = response.matches.try_emplace(prefix);
    if (!fresh) continue;
    for (const auto& [name, data] : lists_) {
      const auto it = data.digests_by_prefix.find(prefix);
      if (it == data.digests_by_prefix.end()) continue;
      for (const auto& digest : it->second) {
        slot->second.push_back({name, digest});
      }
    }
  }
  return response;
}

std::vector<std::string> Server::list_names() const {
  std::vector<std::string> out;
  out.reserve(lists_.size());
  for (const auto& [name, data] : lists_) out.push_back(name);
  return out;
}

std::size_t Server::prefix_count(std::string_view name) const {
  const ListData* data = find(name);
  return data ? data->digests_by_prefix.size() : 0;
}

std::uint64_t Server::chunk_sequence(std::string_view name) const {
  const ListData* data = find(name);
  return data ? data->next_chunk_number : 0;
}

std::vector<crypto::Prefix32> Server::prefixes(std::string_view name) const {
  std::vector<crypto::Prefix32> out;
  const ListData* data = find(name);
  if (!data) return out;
  out.reserve(data->digests_by_prefix.size());
  for (const auto& [prefix, digests] : data->digests_by_prefix) {
    out.push_back(prefix);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<crypto::Digest256> Server::digests_for(
    std::string_view name, crypto::Prefix32 prefix) const {
  const ListData* data = find(name);
  if (!data) return {};
  const auto it = data->digests_by_prefix.find(prefix);
  return it == data->digests_by_prefix.end() ? std::vector<crypto::Digest256>{}
                                             : it->second;
}

}  // namespace sbp::sb
