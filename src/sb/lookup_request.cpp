#include "sb/lookup_request.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>
#include <utility>

#include "url/canonicalize.hpp"
#include "url/decompose.hpp"

namespace sbp::sb {

namespace {

static_assert(std::is_trivially_copyable_v<crypto::Digest256> &&
                  sizeof(crypto::Digest256) == 32,
              "digests are copied into the request buffer as raw bytes");

/// Per-thread working memory of build(): the canonical URL and its packed
/// expressions. Warm after the first few builds, so build() allocates only
/// when a request's own buffer must grow.
struct BuildScratch {
  url::CanonicalUrl canonical;
  url::CanonicalizeScratch canonicalize;
  url::PackedExpressions expressions;
};

}  // namespace

void LookupRequest::build(std::string_view raw_url) {
  thread_local BuildScratch scratch;
  url::PackedExpressions& expressions = scratch.expressions;
  // The same canonicalize -> decompose core url::decompose(raw) wraps, so a
  // request holds exactly the historical per-client pipeline's output.
  expressions.count = 0;
  expressions.text.clear();
  if (url::canonicalize_into(raw_url, scratch.canonical,
                             scratch.canonicalize)) {
    url::decompose_into(scratch.canonical, expressions);
  }

  count_ = expressions.count;
  url_size_ = raw_url.size();
  const std::size_t bytes = url_offset() + url_size_ + expressions.text.size();
  // `raw_url` may view this request's own buffer (build(url())): the old
  // buffer outlives the copy, and the URL moves first, with memmove.
  std::vector<std::byte> previous;
  if (bytes > buffer_.size()) {
    // Power-of-two sizes: a buffer reused for URLs of varying length (the
    // engine's URL-cache entries) stops growing after a few rebuilds.
    previous = std::exchange(buffer_,
                             std::vector<std::byte>(std::bit_ceil(bytes)));
  }
  std::byte* const base = buffer_.data();
  if (url_size_ > 0) {
    std::memmove(base + url_offset(), raw_url.data(), url_size_);
  }
  if (!expressions.text.empty()) {
    std::memcpy(base + url_offset() + url_size_, expressions.text.data(),
                expressions.text.size());
  }
  if (count_ > 0) {
    std::memcpy(base + ends_offset(), expressions.ends.data(), 4 * count_);
  }

  unique_count_ = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const crypto::Digest256 digest = crypto::Digest256::of(expressions[i]);
    const crypto::Prefix32 prefix = digest.prefix32();
    std::memcpy(base + sizeof(digest) * i, &digest, sizeof(digest));
    std::memcpy(base + prefixes_offset() + 4 * i, &prefix, 4);
    const std::span<const crypto::Prefix32> seen = unique_prefixes();
    if (std::find(seen.begin(), seen.end(), prefix) == seen.end()) {
      std::memcpy(base + prefixes_offset() + 4 * (count_ + unique_count_),
                  &prefix, 4);
      ++unique_count_;
    }
  }
}

}  // namespace sbp::sb
