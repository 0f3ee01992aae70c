#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <unordered_map>

#include "sb/wire/frames.hpp"
#include "suite.hpp"

namespace sbp::benchsuite {

template <typename Call, typename Encode>
auto BenchTransport::forward(obs::Channel channel, Call&& call,
                             Encode&& encode) {
  const sb::TransportStats before = inner_.stats();
  const std::uint64_t start_ns = obs::now_ns();
  auto result = call();
  const std::uint64_t dur_ns = obs::now_ns() - start_ns;
  stats_ = inner_.stats();
  const std::uint64_t up = stats_.bytes_up - before.bytes_up;
  const std::uint64_t down = stats_.bytes_down - before.bytes_down;
  if (!result) return result;
  record_obs(channel, up, down, start_ns);
  if (spans_ != nullptr) {
    spans_->push_back({parent_span_ != nullptr ? *parent_span_ : 0, start_ns,
                       dur_ns, channel, up, down});
  }
  if (records_ != nullptr) {
    CaptureRecord record;
    record.tick = clock_.now();
    std::tie(record.request, record.response) = encode(*result);
    records_->push_back(std::move(record));
  }
  return result;
}

std::optional<sb::FullHashResponse> BenchTransport::get_full_hashes_or_error(
    const std::vector<crypto::Prefix32>& prefixes, sb::Cookie cookie) {
  return forward(
      obs::Channel::kFullHash,
      [&] { return inner_.get_full_hashes_or_error(prefixes, cookie); },
      [&](const sb::FullHashResponse& response) {
        return std::pair{sb::wire::encode_full_hash_request({cookie, prefixes}),
                         sb::wire::encode_full_hash_response(response)};
      });
}

std::optional<sb::UpdateResponse> BenchTransport::fetch_update_or_error(
    const sb::UpdateRequest& request) {
  return forward(
      obs::Channel::kV3Update,
      [&] { return inner_.fetch_update_or_error(request); },
      [&](const sb::UpdateResponse& response) {
        return std::pair{sb::wire::encode_update_request(request),
                         sb::wire::encode_update_response(response)};
      });
}

std::optional<sb::V4UpdateResponse> BenchTransport::fetch_v4_update_or_error(
    const sb::V4UpdateRequest& request) {
  return forward(
      obs::Channel::kV4Update,
      [&] { return inner_.fetch_v4_update_or_error(request); },
      [&](const sb::V4UpdateResponse& response) {
        return std::pair{sb::wire::encode_v4_update_request(request),
                         sb::wire::encode_v4_update_response(response)};
      });
}

std::optional<bool> BenchTransport::lookup_v1_or_error(std::string_view url,
                                                       sb::Cookie cookie) {
  return forward(
      obs::Channel::kV1Lookup,
      [&] { return inner_.lookup_v1_or_error(url, cookie); },
      [&](bool malicious) {
        return std::pair{
            sb::wire::encode_v1_lookup_request({cookie, std::string(url)}),
            sb::wire::encode_v1_lookup_response({malicious})};
      });
}

// -- trace file ---------------------------------------------------------------
//
// Layout (little-endian):
//   "SBRT" | u32 version (1)
//   u64 payload_count, then per payload: u32 len + request frame,
//                                        u32 len + expected response frame
//   u64 request_count, then per request: u64 tick + u32 payload index

namespace {

constexpr char kMagic[4] = {'S', 'B', 'R', 'T'};
constexpr std::uint32_t kVersion = 1;

void put(std::vector<std::uint8_t>& out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

class TraceReader {
 public:
  explicit TraceReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}

  bool get(std::uint64_t* value, int bytes) {
    if (bytes_.size() - offset_ < static_cast<std::size_t>(bytes)) {
      return false;
    }
    *value = 0;
    for (int i = 0; i < bytes; ++i) {
      *value |= static_cast<std::uint64_t>(bytes_[offset_++]) << (8 * i);
    }
    return true;
  }
  bool frame(std::vector<std::uint8_t>* out) {
    std::uint64_t length = 0;
    if (!get(&length, 4) || bytes_.size() - offset_ < length) return false;
    out->assign(bytes_.begin() + static_cast<std::ptrdiff_t>(offset_),
                bytes_.begin() + static_cast<std::ptrdiff_t>(offset_ + length));
    offset_ += length;
    return true;
  }
  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - offset_;
  }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t offset_ = 0;
};

}  // namespace

bool build_trace(const std::vector<std::vector<CaptureRecord>>& shards,
                 ReplayTrace* out, std::string* error) {
  // Canonical order: by tick, then shard, then production order within the
  // shard -- the order the engine drains its logs in, at any thread count.
  std::vector<std::tuple<std::uint64_t, std::size_t, std::size_t>> order;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (std::size_t i = 0; i < shards[s].size(); ++i) {
      order.emplace_back(shards[s][i].tick, s, i);
    }
  }
  std::sort(order.begin(), order.end());

  std::unordered_map<std::string, std::uint32_t> index;
  *out = ReplayTrace{};
  for (const auto& [tick, s, i] : order) {
    const CaptureRecord& record = shards[s][i];
    const std::string key(record.request.begin(), record.request.end());
    const auto [it, inserted] =
        index.try_emplace(key, static_cast<std::uint32_t>(out->requests.size()));
    if (inserted) {
      out->requests.push_back(record.request);
      out->responses.push_back(record.response);
    } else if (out->responses[it->second] != record.response) {
      *error = "equal requests got different responses at tick " +
               std::to_string(tick);
      return false;
    }
    out->sequence.emplace_back(tick, it->second);
  }
  return true;
}

std::vector<std::uint8_t> encode_trace(const ReplayTrace& trace) {
  std::vector<std::uint8_t> out(kMagic, kMagic + 4);
  put(out, kVersion, 4);
  put(out, trace.requests.size(), 8);
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    put(out, trace.requests[i].size(), 4);
    out.insert(out.end(), trace.requests[i].begin(), trace.requests[i].end());
    put(out, trace.responses[i].size(), 4);
    out.insert(out.end(), trace.responses[i].begin(),
               trace.responses[i].end());
  }
  put(out, trace.sequence.size(), 8);
  for (const auto& [tick, payload] : trace.sequence) {
    put(out, tick, 8);
    put(out, payload, 4);
  }
  return out;
}

std::optional<ReplayTrace> decode_trace(const std::vector<std::uint8_t>& bytes,
                                        std::string* error) {
  TraceReader in(bytes);
  std::uint64_t version = 0;
  std::uint64_t payloads = 0;
  std::uint64_t requests = 0;
  ReplayTrace trace;
  if (bytes.size() < 4 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    *error = "not a replay trace (bad magic)";
    return std::nullopt;
  }
  std::uint64_t skipped = 0;
  if (!in.get(&skipped, 4) || !in.get(&version, 4) || version != kVersion ||
      !in.get(&payloads, 8) || payloads > in.remaining() / 8) {
    *error = "bad trace header";
    return std::nullopt;
  }
  trace.requests.resize(payloads);
  trace.responses.resize(payloads);
  for (std::uint64_t i = 0; i < payloads; ++i) {
    if (!in.frame(&trace.requests[i]) || !in.frame(&trace.responses[i]) ||
        trace.requests[i].empty()) {
      *error = "truncated payload " + std::to_string(i);
      return std::nullopt;
    }
  }
  if (!in.get(&requests, 8) || requests != in.remaining() / 12 ||
      in.remaining() % 12 != 0) {
    *error = "bad request sequence";
    return std::nullopt;
  }
  trace.sequence.resize(requests);
  for (auto& [tick, payload] : trace.sequence) {
    std::uint64_t index = 0;
    if (!in.get(&tick, 8) || !in.get(&index, 4) || index >= payloads) {
      *error = "request names an unknown payload";
      return std::nullopt;
    }
    payload = static_cast<std::uint32_t>(index);
  }
  return trace;
}

}  // namespace sbp::benchsuite
