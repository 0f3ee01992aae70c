#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define SBP_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sbp::crypto {

namespace {

using DigestBytes = Sha256::DigestBytes;

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

inline void store_be32(std::uint32_t v, std::uint8_t* p) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

/// The portable compression: the reference, and the fallback wherever the
/// CPU lacks SHA-NI.
void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int t = 0; t < 16; ++t) w[t] = load_be32(data + 4 * t);
    for (int t = 16; t < 64; ++t) {
      const std::uint32_t s0 =
          rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int t = 0; t < 64; ++t) {
      const std::uint32_t big_s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + big_s1 + ch + kRoundConstants[t] + w[t];
      const std::uint32_t big_s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = big_s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

/// Writes the single padded block of a message of `size` <= kOneBlockMax
/// bytes: the message, 0x80, zeros, then the 64-bit big-endian bit length.
inline void pad_one_block(const std::uint8_t* data, std::size_t size,
                          std::uint8_t* block) noexcept {
  std::memset(block, 0, 64);
  if (size > 0) std::memcpy(block, data, size);
  block[size] = 0x80;
  const std::uint64_t bits = static_cast<std::uint64_t>(size) * 8;
  block[62] = static_cast<std::uint8_t>(bits >> 8);
  block[63] = static_cast<std::uint8_t>(bits);
}

DigestBytes portable_one_block(const std::uint8_t* data,
                               std::size_t size) noexcept {
  std::uint8_t block[64];
  pad_one_block(data, size, block);
  std::array<std::uint32_t, 8> state = kInitialState;
  compress_portable(state.data(), block, 1);
  DigestBytes digest;
  for (int i = 0; i < 8; ++i) store_be32(state[i], digest.data() + 4 * i);
  return digest;
}

#ifdef SBP_SHA256_X86

// The SHA-NI compression. sha256rnds2 runs two rounds on the state packed as
// ABEF and CDGH; sha256msg1/msg2 extend the message schedule four words at a
// time. The 16 four-round groups are written out in full.
#define SBP_SHA_NI __attribute__((target("sha,sse4.1")))

/// Reverses the bytes of each 32-bit lane (big-endian words <-> native).
SBP_SHA_NI inline __m128i byte_swap_words(__m128i x) noexcept {
  const __m128i mask =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(x, mask);
}

SBP_SHA_NI inline __m128i load_words(const std::uint8_t* p) noexcept {
  return byte_swap_words(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// A..H in memory order -> the ABEF / CDGH packing the round instruction
/// takes.
SBP_SHA_NI inline void pack_state(const std::uint32_t* state, __m128i& abef,
                                  __m128i& cdgh) noexcept {
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  abef = _mm_alignr_epi8(cdab, efgh, 8);
  cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
}

/// The inverse of pack_state: A..D into `dcba`, E..H into `hgfe`.
SBP_SHA_NI inline void unpack_state(__m128i abef, __m128i cdgh, __m128i& dcba,
                                    __m128i& hgfe) noexcept {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
}

/// Rounds 4*quad .. 4*quad+3 on schedule words `words`.
SBP_SHA_NI inline void quad_round(__m128i& abef, __m128i& cdgh, __m128i words,
                                  int quad) noexcept {
  const __m128i k = _mm_load_si128(
      reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * quad));
  const __m128i wk = _mm_add_epi32(words, k);
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Schedule words W[t..t+3] from the four groups before them.
SBP_SHA_NI inline __m128i next_words(__m128i w0, __m128i w1, __m128i w2,
                                     __m128i w3) noexcept {
  const __m128i sigma0 = _mm_sha256msg1_epu32(w0, w1);
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(sigma0, _mm_alignr_epi8(w3, w2, 4)), w3);
}

SBP_SHA_NI inline void compress_block_sha_ni(__m128i& abef, __m128i& cdgh,
                                             const std::uint8_t* block) noexcept {
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;
  __m128i w0 = load_words(block);
  __m128i w1 = load_words(block + 16);
  __m128i w2 = load_words(block + 32);
  __m128i w3 = load_words(block + 48);
  quad_round(abef, cdgh, w0, 0);
  quad_round(abef, cdgh, w1, 1);
  quad_round(abef, cdgh, w2, 2);
  quad_round(abef, cdgh, w3, 3);
  w0 = next_words(w0, w1, w2, w3);
  quad_round(abef, cdgh, w0, 4);
  w1 = next_words(w1, w2, w3, w0);
  quad_round(abef, cdgh, w1, 5);
  w2 = next_words(w2, w3, w0, w1);
  quad_round(abef, cdgh, w2, 6);
  w3 = next_words(w3, w0, w1, w2);
  quad_round(abef, cdgh, w3, 7);
  w0 = next_words(w0, w1, w2, w3);
  quad_round(abef, cdgh, w0, 8);
  w1 = next_words(w1, w2, w3, w0);
  quad_round(abef, cdgh, w1, 9);
  w2 = next_words(w2, w3, w0, w1);
  quad_round(abef, cdgh, w2, 10);
  w3 = next_words(w3, w0, w1, w2);
  quad_round(abef, cdgh, w3, 11);
  w0 = next_words(w0, w1, w2, w3);
  quad_round(abef, cdgh, w0, 12);
  w1 = next_words(w1, w2, w3, w0);
  quad_round(abef, cdgh, w1, 13);
  w2 = next_words(w2, w3, w0, w1);
  quad_round(abef, cdgh, w2, 14);
  w3 = next_words(w3, w0, w1, w2);
  quad_round(abef, cdgh, w3, 15);
  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
}

SBP_SHA_NI void compress_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                                std::size_t blocks) noexcept {
  __m128i abef;
  __m128i cdgh;
  pack_state(state, abef, cdgh);
  for (; blocks > 0; --blocks, data += 64) {
    compress_block_sha_ni(abef, cdgh, data);
  }
  __m128i dcba;
  __m128i hgfe;
  unpack_state(abef, cdgh, dcba, hgfe);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

SBP_SHA_NI DigestBytes sha_ni_one_block(const std::uint8_t* data,
                                        std::size_t size) noexcept {
  alignas(16) std::uint8_t block[64];
  pad_one_block(data, size, block);
  __m128i abef;
  __m128i cdgh;
  pack_state(kInitialState.data(), abef, cdgh);
  compress_block_sha_ni(abef, cdgh, block);
  __m128i dcba;
  __m128i hgfe;
  unpack_state(abef, cdgh, dcba, hgfe);
  DigestBytes digest;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(digest.data()),
                   byte_swap_words(dcba));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(digest.data() + 16),
                   byte_swap_words(hgfe));
  return digest;
}

#undef SBP_SHA_NI

/// CPUID leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3) and 19 (SSE4.1).
bool cpu_has_sha_ni() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse = (ecx & (1u << 9)) != 0 && (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse && (ebx & (1u << 29)) != 0;
}

#endif  // SBP_SHA256_X86

/// One compression and its one-block digest.
struct Kernel {
  detail::Sha256Backend backend;
  detail::Sha256Compress compress;
  DigestBytes (*one_block)(const std::uint8_t* data, std::size_t size) noexcept;
};

constexpr Kernel kPortableKernel{detail::Sha256Backend::kPortable,
                                 compress_portable, portable_one_block};

const Kernel& kernel_for(detail::Sha256Backend backend) noexcept {
#ifdef SBP_SHA256_X86
  static constexpr Kernel kShaNiKernel{detail::Sha256Backend::kShaNi,
                                       compress_sha_ni, sha_ni_one_block};
  if (backend == detail::Sha256Backend::kShaNi) return kShaNiKernel;
#else
  (void)backend;
#endif
  return kPortableKernel;
}

/// The process's kernel, chosen once from CPUID.
const Kernel& active_kernel() noexcept {
  static const Kernel& kernel =
      kernel_for(detail::sha_ni_supported() ? detail::Sha256Backend::kShaNi
                                            : detail::Sha256Backend::kPortable);
  return kernel;
}

DigestBytes hash_with(const Kernel& kernel,
                      std::span<const std::uint8_t> data) noexcept {
  if (data.size() <= Sha256::kOneBlockMax) {
    return kernel.one_block(data.data(), data.size());
  }
  Sha256 h(kernel.backend);
  h.update(data);
  return h.finalize();
}

}  // namespace

namespace detail {

bool sha_ni_supported() noexcept {
#ifdef SBP_SHA256_X86
  static const bool supported = cpu_has_sha_ni();
  return supported;
#else
  return false;
#endif
}

}  // namespace detail

Sha256::Sha256() noexcept : Sha256(active_kernel().backend) {}

Sha256::Sha256(detail::Sha256Backend backend) noexcept
    : compress_(kernel_for(backend).compress),
      state_(kInitialState),
      buffer_{} {}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  if (data.empty()) return;
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      compress_(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - offset) / 64; blocks > 0) {
    compress_(state_.data(), data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

void Sha256::update(std::string_view data) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha256::DigestBytes Sha256::finalize() noexcept {
  const std::uint64_t bit_length = total_bytes_ * 8;
  // Append 0x80, then zeros, then the 64-bit big-endian bit length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  update(std::span<const std::uint8_t>(pad, pad_len));
  std::uint8_t length_bytes[8];
  for (int i = 0; i < 8; ++i) {
    length_bytes[i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  // Use the raw update path; total_bytes_ bookkeeping no longer matters.
  update(std::span<const std::uint8_t>(length_bytes, 8));

  DigestBytes digest;
  for (int i = 0; i < 8; ++i) store_be32(state_[i], digest.data() + 4 * i);
  return digest;
}

Sha256::DigestBytes Sha256::hash(std::string_view data) noexcept {
  return hash(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha256::DigestBytes Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  return hash_with(active_kernel(), data);
}

Sha256::DigestBytes Sha256::hash(detail::Sha256Backend backend,
                                 std::span<const std::uint8_t> data) noexcept {
  return hash_with(kernel_for(backend), data);
}

std::string_view sha256_backend() noexcept {
  return active_kernel().backend == detail::Sha256Backend::kShaNi ? "sha-ni"
                                                                  : "portable";
}

}  // namespace sbp::crypto
