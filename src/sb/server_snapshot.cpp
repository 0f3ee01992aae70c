// Server state <-> snapshot section codec (docs/persistence.md).
//
// Lives apart from server.cpp because it is the only code that serializes
// ListData. The encoding is strictly deterministic: lists_ is an ordered
// map, digest maps are emitted in sorted prefix order, and the open
// chunk's prefixes are emitted verbatim (seal() sorts at seal time, so
// preserving insertion order keeps the restored server's FUTURE chunks
// byte-identical too). Decoding follows the wire Reader discipline --
// bounded counts, no allocation sized by unvalidated lengths, a located
// error for every malformation -- and commits to *this only after the
// whole container decoded cleanly.
#include <algorithm>
#include <utility>

#include "sb/server.hpp"
#include "sb/wire/wire_format.hpp"
#include "storage/snapshot.hpp"

namespace sbp::sb {

namespace {

constexpr std::size_t kMaxListNameBytes = 4096;

void encode_chunk_list(wire::Writer& out, const std::vector<Chunk>& chunks) {
  out.varint(chunks.size());
  for (const Chunk& chunk : chunks) {
    out.u32be(chunk.number);
    out.varint(chunk.prefixes.size());
    for (const crypto::Prefix32 prefix : chunk.prefixes) out.u32be(prefix);
  }
}

bool decode_chunk_list(wire::Reader& reader, ChunkType type,
                       std::vector<Chunk>* out) {
  const auto count = reader.bounded_varint(reader.remaining());
  if (!count) return false;
  out->reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    Chunk chunk;
    chunk.type = type;
    const auto number = reader.u32be();
    if (!number) return false;
    chunk.number = *number;
    const auto prefix_count = reader.bounded_varint(reader.remaining() / 4);
    if (!prefix_count) return false;
    chunk.prefixes.reserve(static_cast<std::size_t>(*prefix_count));
    for (std::uint64_t j = 0; j < *prefix_count; ++j) {
      const auto prefix = reader.u32be();
      if (!prefix) return false;
      chunk.prefixes.push_back(*prefix);
    }
    out->push_back(std::move(chunk));
  }
  return true;
}

bool located(std::string* error, const char* what, std::size_t offset) {
  if (error != nullptr) {
    *error = std::string(what) + " (at payload byte " +
             std::to_string(offset) + ")";
  }
  return false;
}

}  // namespace

void Server::checkpoint_sections(storage::SnapshotWriter& writer) const {
  wire::Writer meta;
  meta.u8(static_cast<std::uint8_t>(provider_));
  meta.varint(minimum_wait_);
  meta.varint(lists_.size());
  writer.section(snapshot_section::kServerMeta, meta.take());

  wire::Writer out;
  for (const auto& [name, data] : lists_) {
    out.string(name);
    out.u32be(data.next_chunk_number);
    encode_chunk_list(out, data.chunks.adds());
    encode_chunk_list(out, data.chunks.subs());
    out.varint(data.open_chunk.prefixes.size());
    for (const crypto::Prefix32 prefix : data.open_chunk.prefixes) {
      out.u32be(prefix);
    }
    std::vector<crypto::Prefix32> sorted_prefixes;
    sorted_prefixes.reserve(data.digests_by_prefix.size());
    for (const auto& [prefix, digests] : data.digests_by_prefix) {
      (void)digests;
      sorted_prefixes.push_back(prefix);
    }
    std::sort(sorted_prefixes.begin(), sorted_prefixes.end());
    out.varint(sorted_prefixes.size());
    for (const crypto::Prefix32 prefix : sorted_prefixes) {
      out.u32be(prefix);
      const auto& digests = data.digests_by_prefix.at(prefix);
      out.varint(digests.size());
      for (const crypto::Digest256& digest : digests) {
        out.bytes(digest.bytes());
      }
    }
  }
  writer.section(snapshot_section::kLists, out.take());
}

std::vector<std::uint8_t> Server::checkpoint_bytes() const {
  storage::SnapshotWriter writer;
  checkpoint_sections(writer);
  return writer.encode();
}

bool Server::checkpoint(storage::StateBackend& backend,
                        std::string* error) const {
  return backend.store(checkpoint_bytes(), error);
}

bool Server::restore_sections(const storage::ParsedSnapshot& snapshot,
                              std::string* error) {
  const storage::SnapshotSection* meta_section =
      snapshot.find(snapshot_section::kServerMeta);
  if (meta_section == nullptr) {
    if (error != nullptr) *error = "snapshot has no server-meta section";
    return false;
  }
  const storage::SnapshotSection* lists_section =
      snapshot.find(snapshot_section::kLists);
  if (lists_section == nullptr) {
    if (error != nullptr) *error = "snapshot has no lists section";
    return false;
  }

  wire::Reader meta(meta_section->payload);
  const auto provider_byte = meta.u8();
  if (!provider_byte || *provider_byte > 1) {
    return located(error, "server-meta: bad provider", meta.offset());
  }
  const auto minimum_wait = meta.varint();
  if (!minimum_wait) {
    return located(error, "server-meta: bad minimum-wait", meta.offset());
  }
  const auto list_count = meta.varint();
  if (!list_count || !meta.done()) {
    return located(error, "server-meta: bad list count", meta.offset());
  }

  wire::Reader reader(lists_section->payload);
  std::map<std::string, ListData, std::less<>> restored;
  for (std::uint64_t i = 0; i < *list_count; ++i) {
    auto name = reader.string(kMaxListNameBytes);
    if (!name || name->empty()) {
      return located(error, "lists: bad list name", reader.offset());
    }
    ListData data;
    const auto next_chunk = reader.u32be();
    if (!next_chunk) {
      return located(error, "lists: bad next-chunk-number", reader.offset());
    }
    data.next_chunk_number = *next_chunk;
    std::vector<Chunk> adds;
    std::vector<Chunk> subs;
    if (!decode_chunk_list(reader, ChunkType::kAdd, &adds)) {
      return located(error, "lists: bad add chunks", reader.offset());
    }
    if (!decode_chunk_list(reader, ChunkType::kSub, &subs)) {
      return located(error, "lists: bad sub chunks", reader.offset());
    }
    for (const Chunk& chunk : adds) {
      if (!data.chunks.apply(chunk)) {
        return located(error, "lists: duplicate add chunk", reader.offset());
      }
    }
    for (const Chunk& chunk : subs) {
      if (!data.chunks.apply(chunk)) {
        return located(error, "lists: duplicate sub chunk", reader.offset());
      }
    }
    const auto open_count = reader.bounded_varint(reader.remaining() / 4);
    if (!open_count) {
      return located(error, "lists: bad open-chunk count", reader.offset());
    }
    data.open_chunk.type = ChunkType::kAdd;
    data.open_chunk.prefixes.reserve(static_cast<std::size_t>(*open_count));
    for (std::uint64_t j = 0; j < *open_count; ++j) {
      const auto prefix = reader.u32be();
      if (!prefix) {
        return located(error, "lists: bad open-chunk prefix",
                       reader.offset());
      }
      data.open_chunk.prefixes.push_back(*prefix);
    }
    const auto digest_entries = reader.bounded_varint(reader.remaining() / 4);
    if (!digest_entries) {
      return located(error, "lists: bad digest-map count", reader.offset());
    }
    data.digests_by_prefix.reserve(
        static_cast<std::size_t>(*digest_entries));
    for (std::uint64_t j = 0; j < *digest_entries; ++j) {
      const auto prefix = reader.u32be();
      if (!prefix) {
        return located(error, "lists: bad digest-map prefix",
                       reader.offset());
      }
      const auto digest_count =
          reader.bounded_varint(reader.remaining() / crypto::Sha256::kDigestSize);
      if (!digest_count) {
        return located(error, "lists: bad digest count", reader.offset());
      }
      std::vector<crypto::Digest256> digests;
      digests.reserve(static_cast<std::size_t>(*digest_count));
      for (std::uint64_t k = 0; k < *digest_count; ++k) {
        const auto raw = reader.bytes(crypto::Sha256::kDigestSize);
        if (!raw) {
          return located(error, "lists: truncated digest", reader.offset());
        }
        crypto::Sha256::DigestBytes bytes;
        std::copy(raw->begin(), raw->end(), bytes.begin());
        digests.emplace_back(bytes);
      }
      if (!data.digests_by_prefix.emplace(*prefix, std::move(digests))
               .second) {
        return located(error, "lists: duplicate digest-map prefix",
                       reader.offset());
      }
    }
    if (!restored.emplace(std::move(*name), std::move(data)).second) {
      return located(error, "lists: duplicate list name", reader.offset());
    }
  }
  if (!reader.done()) {
    return located(error, "lists: trailing bytes after final list",
                   reader.offset());
  }

  provider_ = static_cast<Provider>(*provider_byte);
  minimum_wait_ = *minimum_wait;
  lists_ = std::move(restored);
  query_log_.clear();
  update_cache_.clear();
  return true;
}

bool Server::restore_bytes(std::span<const std::uint8_t> bytes,
                           std::string* error) {
  storage::SnapshotError parse_error;
  const auto parsed = storage::parse_snapshot(bytes, &parse_error);
  if (!parsed) {
    if (error != nullptr) *error = parse_error.to_string();
    return false;
  }
  return restore_sections(*parsed, error);
}

bool Server::restore(storage::StateBackend& backend, std::string* error) {
  std::string load_error;
  const auto bytes = backend.load(&load_error);
  if (!bytes) {
    if (error != nullptr) {
      *error = "cannot load snapshot from " + backend.describe() + ": " +
               load_error;
    }
    return false;
  }
  return restore_bytes(*bytes, error);
}

}  // namespace sbp::sb
