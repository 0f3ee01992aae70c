// SHA-256 (FIPS PUB 180-4), implemented from scratch.
//
// Safe Browsing v3 hashes every canonicalized URL decomposition with SHA-256
// and truncates the digest to a 32-bit prefix (paper Section 2.2.1). This is
// a streaming implementation so large inputs need not be buffered.
//
// Two block compressions sit behind it: a portable one, which is the
// reference and runs everywhere, and an x86 SHA-NI one. The process picks one
// once, from CPUID; nothing else selects it. Inputs of at most 55 bytes (one
// padded block, nearly every URL expression) skip the streaming state.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace sbp::crypto {

namespace detail {

/// The block compressions. kPortable is the reference.
enum class Sha256Backend : std::uint8_t { kPortable, kShaNi };

/// Folds `blocks` consecutive 64-byte blocks into the eight state words.
using Sha256Compress = void (*)(std::uint32_t* state, const std::uint8_t* data,
                                std::size_t blocks) noexcept;

/// True when CPUID reports SHA-NI, SSSE3 and SSE4.1 (always false off x86).
/// The process runs kShaNi exactly when this holds.
[[nodiscard]] bool sha_ni_supported() noexcept;

}  // namespace detail

/// Streaming SHA-256. Usage:
///   Sha256 h; h.update(a); h.update(b); auto digest = h.finalize();
/// finalize() may be called exactly once; the object is then exhausted.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  /// The longest input that pads into a single block.
  static constexpr std::size_t kOneBlockMax = 55;
  using DigestBytes = std::array<std::uint8_t, kDigestSize>;

  /// Hashes with the process's compression.
  Sha256() noexcept;
  /// Hashes with `backend`'s compression; kShaNi requires
  /// detail::sha_ni_supported(). For tests that compare the two.
  explicit Sha256(detail::Sha256Backend backend) noexcept;

  /// Absorbs more input.
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept;

  /// Pads, finishes and returns the 256-bit digest.
  [[nodiscard]] DigestBytes finalize() noexcept;

  /// One-shot digest; inputs of at most kOneBlockMax bytes compress one
  /// stack-padded block with no streaming state.
  [[nodiscard]] static DigestBytes hash(std::string_view data) noexcept;
  [[nodiscard]] static DigestBytes hash(
      std::span<const std::uint8_t> data) noexcept;
  /// The same through `backend`'s compression (kShaNi requires
  /// detail::sha_ni_supported()).
  [[nodiscard]] static DigestBytes hash(
      detail::Sha256Backend backend,
      std::span<const std::uint8_t> data) noexcept;

 private:
  detail::Sha256Compress compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// The name of the compression this process runs: "sha-ni" or "portable".
[[nodiscard]] std::string_view sha256_backend() noexcept;

}  // namespace sbp::crypto
