#include "sb/chunk.hpp"

#include <algorithm>
#include <limits>

namespace sbp::sb {

std::vector<std::uint8_t> serialize_chunk(const Chunk& chunk) {
  wire::Writer out;
  write_chunk(chunk, out);
  return out.take();
}

void write_chunk(const Chunk& chunk, wire::Writer& out) {
  out.u8(static_cast<std::uint8_t>(chunk.type));
  out.u32be(chunk.number);
  out.u32be(static_cast<std::uint32_t>(chunk.prefixes.size()));
  for (const auto prefix : chunk.prefixes) out.u32be(prefix);
}

std::optional<Chunk> deserialize_chunk(std::span<const std::uint8_t> data,
                                       std::size_t& offset) {
  if (offset >= data.size()) return std::nullopt;
  wire::Reader reader(data.subspan(offset));
  const std::uint8_t type_byte = *reader.u8();
  if (type_byte > 1) return std::nullopt;
  const auto number = reader.u32be();
  const auto count = reader.u32be();
  if (!number || !count) return std::nullopt;
  Chunk chunk;
  chunk.type = static_cast<ChunkType>(type_byte);
  chunk.number = *number;
  // Validate the advertised count against the remaining bytes BEFORE
  // allocating: a corrupted count must not trigger a giant reserve
  // (found by the bit-flip fuzzer).
  if (*count > reader.remaining() / 4) return std::nullopt;
  chunk.prefixes.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    chunk.prefixes.push_back(*reader.u32be());
  }
  offset += reader.offset();
  return chunk;
}

bool ChunkStore::apply(const Chunk& chunk) {
  if (has_chunk(chunk.number, chunk.type)) return false;
  auto& target = (chunk.type == ChunkType::kAdd) ? adds_ : subs_;
  const auto pos = std::lower_bound(
      target.begin(), target.end(), chunk,
      [](const Chunk& a, const Chunk& b) { return a.number < b.number; });
  target.insert(pos, chunk);
  return true;
}

bool ChunkStore::has_chunk(std::uint32_t number,
                           ChunkType type) const noexcept {
  return find_chunk(number, type) != nullptr;
}

const Chunk* ChunkStore::find_chunk(std::uint32_t number,
                                    ChunkType type) const noexcept {
  const auto& target = (type == ChunkType::kAdd) ? adds_ : subs_;
  const auto it = std::lower_bound(
      target.begin(), target.end(), number,
      [](const Chunk& c, std::uint32_t n) { return c.number < n; });
  return (it != target.end() && it->number == number) ? &*it : nullptr;
}

std::vector<crypto::Prefix32> ChunkStore::effective_prefixes() const {
  return effective_prefixes(std::numeric_limits<std::uint32_t>::max());
}

std::vector<crypto::Prefix32> ChunkStore::effective_prefixes(
    std::uint32_t below_chunk_number) const {
  std::vector<crypto::Prefix32> out;
  std::vector<crypto::Prefix32> scratch;
  effective_prefixes_into(below_chunk_number, out, scratch);
  return out;
}

void ChunkStore::effective_prefixes_into(
    std::uint32_t below_chunk_number, std::vector<crypto::Prefix32>& out,
    std::vector<crypto::Prefix32>& scratch) const {
  // Gather adds, sort + dedup (equivalent to the set-insert pass, minus
  // the node allocations).
  out.clear();
  for (const Chunk& chunk : adds_) {
    if (chunk.number >= below_chunk_number) continue;
    out.insert(out.end(), chunk.prefixes.begin(), chunk.prefixes.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());

  // Gather subs the same way, then subtract in place (two-pointer walk).
  scratch.clear();
  for (const Chunk& chunk : subs_) {
    if (chunk.number >= below_chunk_number) continue;
    scratch.insert(scratch.end(), chunk.prefixes.begin(),
                   chunk.prefixes.end());
  }
  if (scratch.empty()) return;
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());

  std::size_t w = 0, j = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    while (j < scratch.size() && scratch[j] < out[i]) ++j;
    if (j < scratch.size() && scratch[j] == out[i]) continue;  // revoked
    out[w++] = out[i];
  }
  out.resize(w);
}

std::string ChunkStore::format_ranges(
    const std::vector<std::uint32_t>& sorted_numbers) {
  std::string out;
  std::size_t i = 0;
  while (i < sorted_numbers.size()) {
    std::size_t j = i;
    while (j + 1 < sorted_numbers.size() &&
           sorted_numbers[j + 1] == sorted_numbers[j] + 1) {
      ++j;
    }
    if (!out.empty()) out += ',';
    out += std::to_string(sorted_numbers[i]);
    if (j > i) {
      out += '-';
      out += std::to_string(sorted_numbers[j]);
    }
    i = j + 1;
  }
  return out;
}

namespace {
std::vector<std::uint32_t> numbers_of(const std::vector<Chunk>& chunks) {
  std::vector<std::uint32_t> out;
  out.reserve(chunks.size());
  for (const Chunk& c : chunks) out.push_back(c.number);
  return out;
}
}  // namespace

std::string ChunkStore::add_ranges() const {
  return format_ranges(numbers_of(adds_));
}

std::string ChunkStore::sub_ranges() const {
  return format_ranges(numbers_of(subs_));
}

}  // namespace sbp::sb
