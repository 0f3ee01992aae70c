// The shared lookup input of every protocol generation (src/sb).
//
// v1, v3 and v4 lookups all start from the same raw material -- the URL, its
// canonical decompositions (paper Section 2.2.1), and one SHA-256 digest +
// 32-bit prefix per decomposition -- but historically each entry point
// recomputed it in its own shape (v1 shipped the raw string, the prefix
// clients re-canonicalized and re-hashed per call, and the simulation
// engine kept a fourth copy in its per-shard URL cache). LookupRequest is
// that material computed ONCE: build() canonicalizes, decomposes and hashes
// a URL into reusable buffers, and ProtocolClient::lookup(const
// LookupRequest&) is the single batched entry point all generations
// implement. Callers that only have a string still call
// lookup(std::string_view); it builds a scratch request internally.
//
// The engine's per-shard URL cache stores LookupRequests directly, so a
// cached URL's decomposition work is shared by every user of the shard and
// every protocol generation without re-deriving anything -- the client
// flow is unchanged because build() runs the same canonicalize_into ->
// decompose_into core that url::decompose(raw) wraps, byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/digest.hpp"

namespace sbp::sb {

/// One URL canonicalized, decomposed and hashed once -- the input shape of
/// every generation's lookup flow. Everything lives in ONE byte buffer:
///
///   [digests: 32 B x n][prefixes: 4 B x n][unique prefixes: 4 B x <= n]
///   [expression ends: 4 B x n][raw URL bytes][expression bytes]
///
/// Reusable: build() overwrites in place and reallocates only when the new
/// URL needs more bytes than the buffer holds, so a warm request (and the
/// engine's URL cache of them) builds without touching the heap.
/// Canonicalization and decomposition run on per-thread scratch buffers.
class LookupRequest {
 public:
  LookupRequest() = default;

  /// Rebuilds from a raw URL. valid() turns false when the URL cannot be
  /// canonicalized (zero decompositions); url() always keeps the original
  /// bytes -- v1 ships them verbatim, valid or not, like the real Lookup
  /// API did.
  void build(std::string_view raw_url);

  [[nodiscard]] bool valid() const noexcept { return count_ > 0; }
  /// The original (pre-canonicalization) URL bytes.
  [[nodiscard]] std::string_view url() const noexcept {
    return {chars(url_offset()), url_size_};
  }

  /// Decomposition count (0 when invalid).
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  /// SB expression i, in paper order (most-specific first) -- what a
  /// confirmed verdict reports as matched_expression.
  [[nodiscard]] std::string_view expression(std::size_t i) const noexcept {
    const std::uint32_t* ends = at<std::uint32_t>(ends_offset());
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return {chars(url_offset() + url_size_ + begin), ends[i] - begin};
  }
  /// Every expression as a string, built on demand: for cold callers
  /// only -- nothing on the lookup path materializes expressions.
  [[nodiscard]] std::vector<std::string> expressions() const {
    std::vector<std::string> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i) out.emplace_back(expression(i));
    return out;
  }
  /// Per-decomposition full digests (verdict confirmation).
  [[nodiscard]] std::span<const crypto::Digest256> digests() const noexcept {
    return {at<crypto::Digest256>(0), count_};
  }
  /// Per-decomposition 32-bit prefixes (same order as the expressions).
  [[nodiscard]] std::span<const crypto::Prefix32> prefixes() const noexcept {
    return {at<crypto::Prefix32>(prefixes_offset()), count_};
  }
  /// Deduplicated prefixes in first-seen decomposition order -- what a
  /// client tests against its local store / sends to the server.
  [[nodiscard]] std::span<const crypto::Prefix32> unique_prefixes()
      const noexcept {
    return {at<crypto::Prefix32>(prefixes_offset() + 4 * count_),
            unique_count_};
  }

 private:
  [[nodiscard]] std::size_t prefixes_offset() const noexcept {
    return sizeof(crypto::Digest256) * count_;
  }
  [[nodiscard]] std::size_t ends_offset() const noexcept {
    return prefixes_offset() + 8 * count_;
  }
  [[nodiscard]] std::size_t url_offset() const noexcept {
    return ends_offset() + 4 * count_;
  }
  [[nodiscard]] const char* chars(std::size_t offset) const noexcept {
    return reinterpret_cast<const char*>(buffer_.data()) + offset;
  }
  /// The objects build() copied into the buffer (memcpy into a byte array
  /// implicitly creates them). Null while nothing was ever built.
  template <typename T>
  [[nodiscard]] const T* at(std::size_t offset) const noexcept {
    return buffer_.empty() ? nullptr
                           : std::launder(reinterpret_cast<const T*>(
                                 buffer_.data() + offset));
  }

  /// Grown (never shrunk) to the largest request built into it.
  std::vector<std::byte> buffer_;
  std::size_t count_ = 0;
  std::size_t unique_count_ = 0;
  std::size_t url_size_ = 0;
};

}  // namespace sbp::sb
