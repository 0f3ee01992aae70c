// The Safe Browsing server (paper Figure 2, Sections 2, 4, 7).
//
// Holds the blacklists (prefix -> full digests) and serves the versioned
// protocol endpoints over the same state: v1 clear-URL lookups (the
// deprecated Lookup API), v3 chunked updates + full-hash lookups, and
// v4-style sliced raw-hash updates. Every endpoint that reveals client
// browsing feeds ONE query log with (tick, cookie, prefixes[, url]) -- the
// adversarial observation point of the paper's threat model (Section 4):
// an honest-but-curious-to-malicious provider sees exactly these entries,
// and every re-identification / tracking experiment in src/analysis and
// src/tracking consumes this log unchanged regardless of which protocol
// generation produced an entry.
//
// Tampering hooks (add_orphan_prefix, add_prefix_only) model Section 7's
// findings: prefixes present in the lists with no corresponding full digest
// ("orphans"), which the paper shows Yandex ships in bulk and which prove
// arbitrary prefix injection is possible.
//
// Every endpoint is also reachable as bytes: serve_frame() takes one
// encoded request frame (sb/wire/frames.hpp) and returns the encoded
// response frame. It is the one request dispatch the in-process transport
// and the socket daemon share.
//
// Concurrency model (the parallel simulation runtime, docs/architecture.md):
// the read endpoints (lookup_v1, get_full_hashes) read the lists'
// prefix -> digest maps directly and take no lock, so they are safe to call
// from many threads at once. List mutation (add/remove/seal and the update
// endpoints when they seal) and publish_update_cache() are NOT thread-safe
// and must never run concurrently with anything else -- the engine confines
// them to the single-threaded phases between parallel ticks, the same rule
// the update endpoints rely on. The query log shards the
// same way: a worker thread registers a QueryLogBuffer via ScopedLogShard
// and every entry it produces lands there; the engine drains the buffers
// in canonical shard order after the tick barrier, so the merged stream is
// bit-identical at any thread count. The same buffer carries the thread's
// update encode-cache hits, summed into the server's count by the drain.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/digest.hpp"
#include "obs/lock.hpp"
#include "sb/chunk.hpp"
#include "sb/list_spec.hpp"
#include "sb/published_table.hpp"

namespace sbp::storage {
class SnapshotWriter;
class StateBackend;
struct ParsedSnapshot;
}  // namespace sbp::storage

namespace sbp::sb {

/// Section ids of the persistent snapshot container (docs/persistence.md).
/// kServerMeta/kLists are written by Server::checkpoint_sections();
/// kEngineMeta/kQuerySink are host bookkeeping added by the sim layer
/// (sim::checkpoint_engine) so a resuming daemon knows the snapshot's tick
/// / churn-epoch provenance and can continue the query-log fingerprint.
namespace snapshot_section {
inline constexpr std::uint64_t kServerMeta = 1;
inline constexpr std::uint64_t kLists = 2;
inline constexpr std::uint64_t kEngineMeta = 3;
inline constexpr std::uint64_t kQuerySink = 4;
}  // namespace snapshot_section

/// An opaque client identifier -- the "SB cookie" of Section 2.2.3.
using Cookie = std::uint64_t;

/// One privacy-relevant endpoint hit as the server sees it. For v3/v4
/// full-hash requests `prefixes` is what crossed the wire and `url` is
/// empty; for v1 lookups `url` is the clear URL and `prefixes` are its
/// decomposition prefixes (the server sees the URL, so it trivially knows
/// them) -- letting every prefix-based analysis run on v1 logs too.
struct QueryLogEntry {
  std::uint64_t tick = 0;
  Cookie cookie = 0;
  std::vector<crypto::Prefix32> prefixes;
  std::string url;  ///< non-empty only for v1 observations

  friend bool operator==(const QueryLogEntry& a,
                         const QueryLogEntry& b) noexcept {
    return a.tick == b.tick && a.cookie == b.cookie &&
           a.prefixes == b.prefixes && a.url == b.url;
  }
};

/// Streaming consumer of the query log. The simulation engine attaches a
/// sink so populations far larger than a RAM-resident log can run: each
/// entry is handed to the sink as it is produced and (optionally) never
/// retained by the server.
class QueryLogSink {
 public:
  virtual ~QueryLogSink() = default;
  virtual void record(const QueryLogEntry& entry) = 0;
};

/// One matching full digest, tagged with its list.
struct FullHashMatch {
  std::string list_name;
  crypto::Digest256 digest;
};

/// Per-shard query-log accumulator. A simulation worker thread registers
/// one via Server::ScopedLogShard; entries buffer here in production order
/// (the per-shard `seq`) and reach the sink only when the engine drains the
/// buffers in shard order after the tick barrier -- the canonical
/// (tick, shard, seq) merge that makes parallel runs bit-identical. The
/// thread's lock-free update encode-cache hits are counted here too, so no
/// two threads write one counter.
class QueryLogBuffer {
 public:
  [[nodiscard]] const std::vector<QueryLogEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void clear() { entries_.clear(); }

 private:
  friend class Server;
  std::vector<QueryLogEntry> entries_;
  std::uint64_t update_encode_cache_hits_ = 0;
};

/// An encoded response frame as Server::serve_frame returns it. Shared, so
/// one cached update encoding fans out to every client without a copy;
/// null means the request frame got no reply.
using ResponseFrame = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Server reply to a full-hash request: for each queried prefix, all full
/// digests beginning with it (empty vector = orphan prefix).
struct FullHashResponse {
  std::map<crypto::Prefix32, std::vector<FullHashMatch>> matches;
};

/// Client -> server update request: per list, the chunk ranges it has.
struct UpdateRequest {
  struct ListState {
    std::string list_name;
    std::vector<std::uint32_t> add_chunks;  // numbers already applied
    std::vector<std::uint32_t> sub_chunks;
  };
  std::vector<ListState> lists;
};

/// Server -> client: the chunks the client is missing.
struct UpdateResponse {
  struct ListUpdate {
    std::string list_name;
    std::vector<Chunk> chunks;
  };
  std::vector<ListUpdate> lists;
  /// Minimum ticks before the next update (the paper notes Google imposes
  /// request-frequency limits to protect the service).
  std::uint64_t next_update_after = 0;
};

/// Client -> server v4-style update request: per list, an opaque state
/// token (here: the chunk sequence number the client is synced to; 0 =
/// never synced, forces a full slice).
struct V4UpdateRequest {
  struct ListState {
    std::string list_name;
    std::uint64_t state = 0;
  };
  std::vector<ListState> lists;
};

/// One v4 "slice": the diff taking the client's sorted raw prefix set from
/// `state` to `new_state`. Removals are indices into the client's CURRENT
/// sorted set (what the real Update API does); additions are the new
/// prefix values, Rice-compressed on the wire.
struct V4SliceUpdate {
  std::string list_name;
  bool full_reset = false;  ///< unknown/stale state: additions are the full set
  std::uint64_t new_state = 0;
  std::vector<std::uint32_t> removal_indices;
  std::vector<crypto::Prefix32> additions;
  /// FNV-1a over the post-update sorted set; the client verifies it and
  /// resyncs from scratch on mismatch (v4's sha256 checksum, modeled).
  std::uint32_t checksum = 0;
};

struct V4UpdateResponse {
  std::vector<V4SliceUpdate> lists;
  /// Server-set minimum wait before the next update request (the v4 API's
  /// minimum_wait_duration).
  std::uint64_t minimum_wait = 0;
};

/// A decoded update response handed out by pointer (sb::Transport's shared
/// update path): every client given the same response frame shares one
/// decoded value. `frame` is the frame `value` was decoded from -- two
/// responses with the same non-null frame have the same contents -- or
/// null when the value came from no frame; a null `value` is a failed
/// request.
template <typename Response>
struct SharedResponse {
  std::shared_ptr<const Response> value;
  ResponseFrame frame;
};
using SharedUpdate = SharedResponse<UpdateResponse>;
using SharedV4Update = SharedResponse<V4UpdateResponse>;

class Server {
 public:
  explicit Server(Provider provider = Provider::kGoogle)
      : provider_(provider) {}

  /// Copies the logical state (lists, log, sink wiring); the copy starts
  /// with an empty update encode cache. Not thread-safe, like all mutation.
  Server(const Server& other)
      : provider_(other.provider_),
        lists_(other.lists_),
        query_log_(other.query_log_),
        sink_(other.sink_),
        retain_query_log_(other.retain_query_log_),
        minimum_wait_(other.minimum_wait_) {}
  Server& operator=(const Server& other) {
    if (this != &other) {
      provider_ = other.provider_;
      lists_ = other.lists_;
      query_log_ = other.query_log_;
      sink_ = other.sink_;
      retain_query_log_ = other.retain_query_log_;
      minimum_wait_ = other.minimum_wait_;
      update_cache_.clear();
    }
    return *this;
  }

  [[nodiscard]] Provider provider() const noexcept { return provider_; }

  /// RAII guard routing every log_query() on *this thread* into `buffer`
  /// instead of the sink/retained log. Used by parallel engine workers;
  /// nests (the previous buffer is restored on destruction). The routing
  /// is per-thread and PROCESS-WIDE, not per-server: while the guard is
  /// alive, endpoints of EVERY Server this thread touches log into
  /// `buffer` -- don't drive a second server inside a shard scope.
  class ScopedLogShard {
   public:
    explicit ScopedLogShard(QueryLogBuffer& buffer) noexcept;
    ~ScopedLogShard();
    ScopedLogShard(const ScopedLogShard&) = delete;
    ScopedLogShard& operator=(const ScopedLogShard&) = delete;

   private:
    QueryLogBuffer* previous_;
  };

  /// Flushes `buffer` into the sink / retained log (in buffer order) and
  /// clears it. Call from one thread, in shard order, after the barrier.
  void drain_log_buffer(QueryLogBuffer& buffer);

  // -- database construction ------------------------------------------------

  /// Creates an empty list (idempotent).
  void create_list(std::string_view name);

  /// Blacklists the SB expression: stores its full digest (and prefix) in
  /// `list`. Entries accumulate into the currently open chunk.
  void add_expression(std::string_view list, std::string_view expression);

  /// Adds a full digest directly.
  void add_digest(std::string_view list, const crypto::Digest256& digest);

  /// Adds a bare prefix with NO full digest: an orphan (Section 7.2).
  void add_orphan_prefix(std::string_view list, crypto::Prefix32 prefix);

  /// Removes an expression via a sub chunk.
  void remove_expression(std::string_view list, std::string_view expression);

  /// Batched removal: every expression whose prefix becomes unreferenced is
  /// revoked through ONE sub chunk (the shape a real provider's periodic
  /// update takes, and what keeps per-epoch chunk counts bounded under live
  /// churn -- one add + one sub chunk per list per epoch).
  void remove_expressions(std::string_view list,
                          const std::vector<std::string>& expressions);

  /// Closes the open chunk of `list` so subsequent adds start a new one.
  void seal_chunk(std::string_view list);

  // -- protocol endpoints ---------------------------------------------------

  /// v1 Lookup API: receives the URL in clear, checks every decomposition's
  /// full digest, and logs (tick, cookie, decomposition prefixes, url) --
  /// the maximal privacy leak. Returns true if malicious.
  [[nodiscard]] bool lookup_v1(std::string_view url, Cookie cookie,
                               std::uint64_t tick);

  /// v3 chunked update: returns every sealed chunk the client is missing.
  [[nodiscard]] UpdateResponse fetch_update(const UpdateRequest& request);

  /// v4 sliced update: diffs the client's synced state against the current
  /// effective prefix set and returns removal-index/addition slices.
  [[nodiscard]] V4UpdateResponse fetch_v4_update(const V4UpdateRequest& request);

  /// The byte-level endpoint: decodes one request frame (full-hash, v1
  /// lookup, v3 or v4 update), serves it at `tick` through the typed
  /// endpoint above or below, and returns the encoded response frame.
  /// Response tags and unknown, empty or undecodable frames get no reply
  /// (nullptr) and log nothing. `tick` stamps the query log; the update
  /// endpoints ignore it.
  ///
  /// Update responses are memoized per request-frame bytes (the
  /// encode-once/fan-out cache): N clients resyncing from the same state
  /// token share ONE encoding of the diff. Any list mutation or
  /// set_minimum_wait() drops the whole cache, so a hit is always
  /// byte-identical to a fresh encode. The cache is an sb::PublishedTable:
  /// a thread with a ScopedLogShard (an engine worker) probes its
  /// published table with no lock and counts a hit in its shard buffer;
  /// every other call, and every miss, goes through the serve mutex, where
  /// exactly one caller encodes each distinct request frame. A server that
  /// never publishes (the daemon) serves every update under the mutex.
  /// THREAD-SAFE for the read endpoints and for updates, provided no
  /// caller mutates lists or publishes concurrently (the engine's serial
  /// churn epoch seals everything before the parallel phase opens, so the
  /// seal inside fetch_* is a no-op there).
  [[nodiscard]] ResponseFrame serve_frame(
      const std::vector<std::uint8_t>& request_frame, std::uint64_t tick);

  /// Moves the encodings made since the last publish into the published
  /// table. Only while no thread serves (sim::Engine: at the tick barrier).
  void publish_update_cache() { update_cache_.publish(); }

  /// Number of update requests served from the encode cache since
  /// construction (exported as the `update_encode_cache_hits` counter):
  /// the lock-free hits, which join it when their shard buffer is drained,
  /// plus the locked calls that did not encode. Only while no thread
  /// serves.
  [[nodiscard]] std::uint64_t update_encode_cache_hits() const {
    return update_encode_cache_hits_ +
           update_cache_.lock_stats().acquisitions - update_cache_.builds();
  }

  /// The serve mutex's figures: its acquisitions (`update_serve_locked`,
  /// the update requests served under it) and, with lock metrics on, its
  /// wait and hold times. Only while no thread serves.
  [[nodiscard]] obs::LockStats update_serve_lock() const {
    return update_cache_.lock_stats();
  }
  /// Times the serve mutex's waits and holds. Only while no thread serves.
  void set_lock_metrics(bool on) { update_cache_.set_lock_metrics(on); }

  /// Full-hash lookup (shared by v3 and v4). Logs (tick, cookie, prefixes)
  /// -- the privacy-critical observation. Each prefix's matches come from
  /// every list's prefix -> digest map, ordered by list name, then by digest
  /// order within the list. Unknown and orphan prefixes yield empty match
  /// vectors.
  [[nodiscard]] FullHashResponse get_full_hashes(
      const std::vector<crypto::Prefix32>& prefixes, Cookie cookie,
      std::uint64_t tick);

  /// Server-imposed minimum gap between updates, echoed as v3's
  /// next_update_after and v4's minimum_wait (request-frequency limits,
  /// Section 2.2.1). Default 0 so tests and benches can drive updates
  /// freely. Drops the update-encode cache (the wait is baked into every
  /// encoded response).
  void set_minimum_wait(std::uint64_t ticks) noexcept {
    minimum_wait_ = ticks;
    update_cache_.clear();
  }

  // -- persistence (docs/persistence.md) ------------------------------------
  //
  // checkpoint_*() serializes the COMPLETE serving state -- every list's
  // sealed chunks, open chunk, next_chunk_number (the chunk sequence / v4
  // state token), prefix -> digest map, plus provider and minimum-wait --
  // into snapshot_section::kServerMeta / kLists sections of a
  // storage::SnapshotWriter container. Encoding is deterministic (lists in
  // sorted name order, digest maps in sorted prefix order), so
  // checkpoint -> restore -> checkpoint is a byte fixpoint. restore_*()
  // replaces this server's state wholesale; a restored server is
  // byte-indistinguishable to every client generation (same chunk
  // sequences, same v3 chunks, same v4 slices and checksums). On any
  // decode failure restore leaves *this untouched and reports a located
  // error. Sink wiring and the retained query log are host concerns and
  // are not serialized; restore clears the retained log.

  void checkpoint_sections(storage::SnapshotWriter& writer) const;
  [[nodiscard]] std::vector<std::uint8_t> checkpoint_bytes() const;
  bool checkpoint(storage::StateBackend& backend, std::string* error) const;
  bool restore_sections(const storage::ParsedSnapshot& snapshot,
                        std::string* error);
  bool restore_bytes(std::span<const std::uint8_t> bytes, std::string* error);
  bool restore(storage::StateBackend& backend, std::string* error);

  // -- introspection (forensics & experiments) ------------------------------

  [[nodiscard]] std::vector<std::string> list_names() const;
  [[nodiscard]] std::size_t prefix_count(std::string_view list) const;
  /// The list's next chunk number -- the sequence the v4 state token is
  /// derived from. Bumped by every sealed add/sub chunk, so it advances at
  /// least once per churn epoch; 0 for unknown lists.
  [[nodiscard]] std::uint64_t chunk_sequence(std::string_view list) const;
  /// All prefixes of a list (sorted) -- what a crawler of the database sees.
  [[nodiscard]] std::vector<crypto::Prefix32> prefixes(
      std::string_view list) const;
  /// Full digests stored for a prefix in a list.
  [[nodiscard]] std::vector<crypto::Digest256> digests_for(
      std::string_view list, crypto::Prefix32 prefix) const;

  [[nodiscard]] const std::vector<QueryLogEntry>& query_log() const noexcept {
    return query_log_;
  }
  void clear_query_log() { query_log_.clear(); }

  /// Streams every future query-log entry to `sink`. When `retain_in_memory`
  /// is false the server stops appending to its internal vector -- required
  /// for populations whose logs exceed RAM (the default, matching the
  /// streaming use case). Passing nullptr detaches the sink and restores
  /// normal in-memory retention.
  void set_query_log_sink(QueryLogSink* sink, bool retain_in_memory = false) {
    sink_ = sink;
    retain_query_log_ = sink == nullptr || retain_in_memory;
  }

 private:
  struct ListData {
    ChunkStore chunks;
    Chunk open_chunk;               // accumulating adds
    std::uint32_t next_chunk_number = 1;
    /// prefix -> full digests (empty vector = orphan prefix).
    std::unordered_map<crypto::Prefix32, std::vector<crypto::Digest256>>
        digests_by_prefix;
  };

  ListData& list(std::string_view name);
  [[nodiscard]] const ListData* find(std::string_view name) const;
  void seal(ListData& data);
  void log_query(QueryLogEntry entry);
  /// Serves one update frame through the encode cache; `serve` decodes,
  /// serves and encodes on a miss (nullopt = undecodable, not cached).
  template <typename Serve>
  [[nodiscard]] ResponseFrame serve_cached_update(
      const std::vector<std::uint8_t>& request_frame, Serve&& serve);

  Provider provider_;
  std::map<std::string, ListData, std::less<>> lists_;
  std::vector<QueryLogEntry> query_log_;
  QueryLogSink* sink_ = nullptr;
  bool retain_query_log_ = true;
  std::uint64_t minimum_wait_ = 0;

  /// Transparent hash: the encode cache is probed with a string_view of
  /// the request frame, so a hit copies no key.
  struct FrameKeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view bytes) const noexcept {
      return std::hash<std::string_view>{}(bytes);
    }
  };

  /// Encoded update responses keyed by encoded request-frame bytes (see
  /// serve_frame). Cleared by every mutation and by set_minimum_wait; never
  /// copied (copies start cold).
  PublishedTable<std::string, ResponseFrame, FrameKeyHash> update_cache_;
  /// Lock-free hits, drained from the shard buffers.
  std::uint64_t update_encode_cache_hits_ = 0;

  /// Thread-local routing target installed by ScopedLogShard.
  static thread_local QueryLogBuffer* active_log_buffer_;
};

}  // namespace sbp::sb
