// Phase timers and runtime instrumentation structs (src/obs).
//
// PROFILING, NOT BEHAVIOUR: nothing in this header feeds back into any
// simulation decision. Timers read std::chrono::steady_clock, record into
// thread-confined accumulators, and are merged single-threaded at the tick
// barrier in canonical shard order -- so enabling metrics cannot move a
// single byte of the query log or the wire (the contract
// tests/obs/determinism_test.cpp and `sbsim verify --metrics` enforce).
//
// Three instrumented subsystems share this header:
//   * PhaseProfile -- per-phase wall time + span histograms for the engine
//     tick loop (plan, lookup, resync, churn_epoch, log_drain, and the
//     whole parallel_tick barrier-to-barrier section).
//   * PoolObs -- thread-pool internals: batch dispatch (wake) latency,
//     per-worker busy time and per-batch item imbalance. This is the data
//     that confirms or kills the false-sharing / batch-skew hypotheses the
//     ROADMAP's scaling item names.
//   * TransportObs -- per-channel request/latency/byte histograms on the
//     wire path, the exact-byte refinement of sb::TransportStats.
//
// Everything here is POD-ish and allocation-free on the record path. The
// engine times every span through one Stopwatch, which reads the clock
// only when metrics are on, so a metrics-off run reads no clock at all.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"

namespace sbp::obs {

/// Monotonic wall clock in nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// The engine phases the profiler distinguishes. One simulation tick is
/// serial(churn_epoch?) -> parallel(resync+plan+lookup per shard) ->
/// serial(log_drain); parallel_tick spans the whole parallel section
/// including the barrier, so parallel_tick - (resync+plan+lookup)/threads
/// is scheduling overhead.
enum class Phase : std::size_t {
  kPlan = 0,       ///< a shard's visit planning (traffic model), per tick
  kLookup,         ///< a shard's dispatch through the batched lookup layer
  kResync,         ///< staggered client update() polls, per shard
  /// serial: epoch mutation + reseal, and the re-syncs the
  /// epoch leads (one per shard, also timed as that shard's resync)
  kChurnEpoch,
  kLogDrain,       ///< serial: post-barrier log merge + counter reduction
  kParallelTick,   ///< the whole parallel_for over shards, incl. barrier
  /// Sub-phases of lookup, per URL-cache miss, per shard. They nest inside
  /// lookup spans, so they are never added into shard-CPU sums.
  kSite,           ///< the missed URL's string, via the site table
  kUrlBuild,       ///< LookupRequest::build: canonicalize, decompose, hash
  kCount
};

constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

[[nodiscard]] std::string_view phase_name(Phase phase) noexcept;

/// Accumulated wall time + span distribution of one phase. A "span" is
/// one timed execution: per shard-tick for plan, lookup and resync (two
/// resync spans on an epoch tick: the lead re-sync and the rest), per
/// URL-cache miss for site/url_build, per tick for log_drain and
/// parallel_tick, per epoch for churn_epoch.
struct PhaseStats {
  std::uint64_t spans = 0;
  std::uint64_t total_ns = 0;
  Histogram span_ns;

  void record(std::uint64_t ns) noexcept {
    ++spans;
    total_ns += ns;
    span_ns.record(ns);
  }
  void merge_from(const PhaseStats& other) noexcept {
    spans += other.spans;
    total_ns += other.total_ns;
    span_ns.merge_from(other.span_ns);
  }
};

/// Per-phase statistics. Each shard owns one (resync, plan, lookup and
/// lookup's sub-phases) and the engine owns one for the serial phases;
/// merged in canonical shard order into the run snapshot. Merging is exact
/// and commutative.
class PhaseProfile {
 public:
  void record(Phase phase, std::uint64_t ns) noexcept {
    stats_[static_cast<std::size_t>(phase)].record(ns);
  }
  [[nodiscard]] const PhaseStats& stats(Phase phase) const noexcept {
    return stats_[static_cast<std::size_t>(phase)];
  }
  void merge_from(const PhaseProfile& other) noexcept {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      stats_[i].merge_from(other.stats_[i]);
    }
  }

 private:
  std::array<PhaseStats, kPhaseCount> stats_{};
};

/// Times back-to-back spans, reading the clock only when `on`. lap() is
/// the ns since construction or the previous lap (0 when off);
/// record_lap() records it as one span of `phase` (nothing when off).
class Stopwatch {
 public:
  explicit Stopwatch(bool on) noexcept
      : on_(on), last_ns_(on ? now_ns() : 0) {}

  [[nodiscard]] std::uint64_t lap() noexcept {
    if (!on_) return 0;
    const std::uint64_t now = now_ns();
    const std::uint64_t ns = now - last_ns_;
    last_ns_ = now;
    return ns;
  }
  void record_lap(PhaseProfile& profile, Phase phase) noexcept {
    if (on_) profile.record(phase, lap());
  }

 private:
  bool on_;
  std::uint64_t last_ns_;
};

/// Thread-pool instrumentation, owned by the pool's creator and filled by
/// ThreadPool under its batch mutex (see sim/thread_pool.cpp): workers
/// stage per-batch samples in per-thread slots and the caller folds them
/// in after the barrier, so no sample is ever written concurrently.
struct PoolObs {
  struct Worker {
    std::uint64_t busy_ns = 0;   ///< total time inside the claim loop
    std::uint64_t executed = 0;  ///< indices this thread ran
    std::uint64_t batches = 0;   ///< batches this thread participated in
  };

  std::uint64_t batches = 0;  ///< parallel_for calls
  std::uint64_t tasks = 0;    ///< total indices across all batches
  /// Wake latency: publish-to-entry ns per resident worker per batch (the
  /// caller thread enters immediately and is excluded).
  Histogram dispatch_ns;
  /// Busy ns per participating thread per batch.
  Histogram busy_ns;
  /// Per batch: max - min indices executed across ALL pool threads
  /// (threads that never woke count as 0 -- that IS imbalance).
  Histogram imbalance_items;
  /// Per-thread totals; index 0 is the calling thread, 1..N-1 the
  /// resident workers.
  std::vector<Worker> workers;
};

/// The wire channels the transport distinguishes.
enum class Channel : std::size_t {
  kFullHash = 0,  ///< v3/v4-shared full-hash exchange
  kV3Update,      ///< v3 chunked updates
  kV4Update,      ///< v4 sliced updates
  kV1Lookup,      ///< v1 clear-URL lookups
  kCount
};

constexpr std::size_t kChannelCount = static_cast<std::size_t>(Channel::kCount);

[[nodiscard]] std::string_view channel_name(Channel channel) noexcept;

/// Per-channel request path stats: latency of one served request
/// (encode + decode + server work, as the zero-latency transport runs it)
/// and exact frame sizes both ways. The channel's request count is
/// request_bytes.count(), its bytes up and down request_bytes.sum() and
/// response_bytes.sum(). Injected failures and decode errors are not
/// recorded here (TransportStats.failed_requests counts those).
struct ChannelStats {
  Histogram serve_ns;
  Histogram request_bytes;
  Histogram response_bytes;

  void record(std::uint64_t up, std::uint64_t down,
              std::uint64_t ns) noexcept {
    request_bytes.record(up);
    response_bytes.record(down);
    serve_ns.record(ns);
  }
  void merge_from(const ChannelStats& other) noexcept {
    serve_ns.merge_from(other.serve_ns);
    request_bytes.merge_from(other.request_bytes);
    response_bytes.merge_from(other.response_bytes);
  }
};

/// One transport's channel stats; the engine keeps one per shard (each
/// shard owns its transport, so recording is contention-free) and merges
/// them in canonical shard order.
struct TransportObs {
  std::array<ChannelStats, kChannelCount> channels{};

  [[nodiscard]] ChannelStats& channel(Channel c) noexcept {
    return channels[static_cast<std::size_t>(c)];
  }
  void merge_from(const TransportObs& other) noexcept {
    for (std::size_t i = 0; i < kChannelCount; ++i) {
      channels[i].merge_from(other.channels[i]);
    }
  }
};

/// One tick's per-phase wall time, summed over shards for the parallel
/// phases -- the optional time series `--metrics-series` exports.
struct TickSample {
  std::uint64_t tick = 0;
  std::array<std::uint64_t, kPhaseCount> phase_ns{};
};

}  // namespace sbp::obs
