// Shavar update-protocol chunks.
//
// Safe Browsing lists are distributed as numbered add/sub chunks of 32-bit
// prefixes (paper Section 2.2: "The lists can either be downloaded partially
// to only update a local copy or can be obtained in its entirety"). A client
// advertises the chunk numbers it has applied; the server replies with the
// chunks it is missing. Sub chunks revoke prefixes added by earlier add
// chunks -- the mechanism that makes the blacklists "highly dynamic", which
// is why Google abandoned the static Bloom filter (Section 2.2.2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "sb/wire/wire_format.hpp"

namespace sbp::sb {

enum class ChunkType : std::uint8_t { kAdd = 0, kSub = 1 };

struct Chunk {
  std::uint32_t number = 0;
  ChunkType type = ChunkType::kAdd;
  std::vector<crypto::Prefix32> prefixes;

  friend bool operator==(const Chunk&, const Chunk&) = default;
};

/// Wire encoding: [type:1][number:4 BE][count:4 BE][prefix:4 BE]*.
[[nodiscard]] std::vector<std::uint8_t> serialize_chunk(const Chunk& chunk);

/// Appends serialize_chunk(chunk)'s bytes to `out`.
void write_chunk(const Chunk& chunk, wire::Writer& out);

/// serialize_chunk(chunk).size().
[[nodiscard]] inline std::size_t chunk_wire_size(const Chunk& chunk) noexcept {
  return 9 + 4 * chunk.prefixes.size();
}

/// Decodes one chunk starting at data[offset]; advances offset. Returns
/// nullopt on truncation or a bad type byte.
[[nodiscard]] std::optional<Chunk> deserialize_chunk(
    std::span<const std::uint8_t> data, std::size_t& offset);

/// The set of chunks a client has applied for one list, and the effective
/// prefix set they produce (adds minus subs).
class ChunkStore {
 public:
  /// Applies a chunk. Re-applying an already-known chunk number of the same
  /// type is a no-op (idempotent sync). Returns false if ignored.
  bool apply(const Chunk& chunk);

  /// Effective prefixes: union of add-chunk prefixes minus prefixes revoked
  /// by sub chunks. Sorted, deduplicated.
  [[nodiscard]] std::vector<crypto::Prefix32> effective_prefixes() const;

  /// Effective prefixes considering only chunks numbered below
  /// `below_chunk_number` -- reconstructs the set a client synced to that
  /// sequence point holds (the v4 sliced-update diff base).
  [[nodiscard]] std::vector<crypto::Prefix32> effective_prefixes(
      std::uint32_t below_chunk_number) const;

  /// Allocation-reusing form: writes the sorted, deduplicated effective
  /// set into `out` (cleared first) using `scratch` for the sub-chunk
  /// gather. Identical contents to effective_prefixes(below) -- this is
  /// what client store rebuilds call so re-syncs stop churning the heap.
  void effective_prefixes_into(std::uint32_t below_chunk_number,
                               std::vector<crypto::Prefix32>& out,
                               std::vector<crypto::Prefix32>& scratch) const;

  /// Chunk numbers applied, as a compact range descriptor, e.g. "1-3,7"
  /// (the shavar "a:" / "s:" advertisement format).
  [[nodiscard]] std::string add_ranges() const;
  [[nodiscard]] std::string sub_ranges() const;

  [[nodiscard]] bool has_chunk(std::uint32_t number,
                               ChunkType type) const noexcept;
  [[nodiscard]] std::size_t num_chunks() const noexcept {
    return adds_.size() + subs_.size();
  }

  /// The chunk with the given number/type, or nullptr.
  [[nodiscard]] const Chunk* find_chunk(std::uint32_t number,
                                        ChunkType type) const noexcept;

  [[nodiscard]] const std::vector<Chunk>& adds() const noexcept {
    return adds_;
  }
  [[nodiscard]] const std::vector<Chunk>& subs() const noexcept {
    return subs_;
  }

  /// Formats sorted chunk numbers as "1-3,7,9-10".
  [[nodiscard]] static std::string format_ranges(
      const std::vector<std::uint32_t>& sorted_numbers);

 private:
  std::vector<Chunk> adds_;  // kept sorted by number
  std::vector<Chunk> subs_;
};

}  // namespace sbp::sb
