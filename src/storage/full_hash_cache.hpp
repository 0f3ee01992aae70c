// Client-side cache of full digests returned by the server.
//
// Paper Section 2.2.1: "After receiving the list of full digests
// corresponding to the suspected prefixes, they are locally stored until an
// update discards them. Storing the full digests prevents the network from
// slowing down due to frequent requests." The GSB API additionally bounds
// the cache entries' lifetime; we model both expiry and explicit
// invalidation-on-update.
//
// Time is an abstract uint64 tick supplied by the caller (the simulation
// clock lives in sb::Transport), keeping this structure deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/digest.hpp"

namespace sbp::storage {

/// One cached full digest tagged with the list it came from (the shape of
/// the server's full-hash response, mirrored here so a cache answer
/// carries everything a verdict needs -- including the list name --
/// without asking the server again).
struct FullHashEntry {
  std::string list_name;
  crypto::Digest256 digest;

  friend bool operator==(const FullHashEntry& a,
                         const FullHashEntry& b) noexcept {
    return a.list_name == b.list_name && a.digest == b.digest;
  }
};

class FullHashCache {
 public:
  /// `ttl_ticks`: lifetime of a cached response; 0 = never expires.
  explicit FullHashCache(std::uint64_t ttl_ticks = 0)
      : ttl_ticks_(ttl_ticks) {}

  /// Stores the server's full digests for `prefix` (possibly empty = the
  /// prefix has no matching digest, a *negative* entry -- exactly the
  /// "orphan prefix" situation of paper Section 7.2).
  void put(crypto::Prefix32 prefix, std::vector<FullHashEntry> entries,
           std::uint64_t now);

  /// Cached entries for `prefix` if present and fresh at `now`.
  [[nodiscard]] std::optional<std::vector<FullHashEntry>> get(
      crypto::Prefix32 prefix, std::uint64_t now) const;

  /// Drops everything (a database update invalidates cached responses).
  /// An empty cache returns at once: a clear of the map itself rewrites
  /// every bucket, and most updates find the cache empty.
  void clear() {
    if (!entries_.empty()) entries_.clear();
  }

  /// Drops expired entries; returns how many were removed.
  std::size_t evict_expired(std::uint64_t now);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::vector<FullHashEntry> entries;
    std::uint64_t stored_at = 0;
  };

  [[nodiscard]] bool fresh(const Entry& entry,
                           std::uint64_t now) const noexcept {
    return ttl_ticks_ == 0 || now <= entry.stored_at + ttl_ticks_;
  }

  std::uint64_t ttl_ticks_;
  std::unordered_map<crypto::Prefix32, Entry> entries_;
};

}  // namespace sbp::storage
