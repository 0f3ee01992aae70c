// Streaming query-log sinks for the simulation engine.
//
// The server-side query log is the paper's adversarial observable; at
// population scale it cannot live in RAM (a million users browsing for a
// day produce billions of entries). The engine therefore streams every
// entry through a sb::QueryLogSink as it is produced. This header provides
// the stock sinks:
//
//   * InMemorySink   -- collects everything (tests, small experiments);
//   * CountingSink   -- O(1) state: counts + an order-sensitive fingerprint,
//                       the determinism witness at any scale;
//   * AggregatorSink -- incremental temporal correlation (Section 6.3): the
//                       streaming equivalent of tracking::correlate, firing
//                       rules as entries arrive instead of post-processing
//                       a materialized log;
//   * FanoutSink     -- multiplexes one stream into several sinks.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "sb/server.hpp"
#include "tracking/aggregator.hpp"

namespace sbp::sim {

/// Collects the full log in memory. Equivalent to the server's own
/// retained log; used to validate streaming sinks against it.
class InMemorySink : public sb::QueryLogSink {
 public:
  void record(const sb::QueryLogEntry& entry) override {
    entries_.push_back(entry);
  }

  [[nodiscard]] const std::vector<sb::QueryLogEntry>& entries()
      const noexcept {
    return entries_;
  }

 private:
  std::vector<sb::QueryLogEntry> entries_;
};

/// Order-sensitive FNV-1a fingerprint of a query-log stream. Two logs have
/// equal fingerprints iff (with overwhelming probability) they are
/// bit-identical in content *and* order -- the determinism criterion.
[[nodiscard]] std::uint64_t fingerprint_entry(std::uint64_t fingerprint,
                                              const sb::QueryLogEntry& entry);
[[nodiscard]] std::uint64_t fingerprint_log(
    const std::vector<sb::QueryLogEntry>& log);

/// The complete internal state of a CountingSink -- four integers, so a
/// checkpointed daemon can persist its fingerprint accumulator and a
/// restored one continues the stream as if never interrupted
/// (docs/persistence.md).
struct CountingSinkState {
  std::uint64_t entries = 0;
  std::uint64_t prefixes = 0;
  std::uint64_t multi_prefix_entries = 0;
  std::uint64_t fingerprint = 14695981039346656037ULL;  // FNV offset basis

  friend bool operator==(const CountingSinkState&,
                         const CountingSinkState&) = default;
};

/// Snapshot-section payload codec for CountingSinkState (four varints, in
/// struct order). decode returns nullopt on truncation or trailing bytes.
[[nodiscard]] std::vector<std::uint8_t> encode_counting_sink_state(
    const CountingSinkState& state);
[[nodiscard]] std::optional<CountingSinkState> decode_counting_sink_state(
    std::span<const std::uint8_t> payload);

/// Constant-memory sink: entry/prefix counts plus the stream fingerprint.
class CountingSink : public sb::QueryLogSink {
 public:
  void record(const sb::QueryLogEntry& entry) override;

  [[nodiscard]] CountingSinkState state() const noexcept {
    return CountingSinkState{entries_, prefixes_, multi_prefix_entries_,
                             fingerprint_};
  }
  void restore(const CountingSinkState& state) noexcept {
    entries_ = state.entries;
    prefixes_ = state.prefixes;
    multi_prefix_entries_ = state.multi_prefix_entries;
    fingerprint_ = state.fingerprint;
  }

  [[nodiscard]] std::uint64_t entries() const noexcept { return entries_; }
  [[nodiscard]] std::uint64_t prefixes() const noexcept { return prefixes_; }
  /// Entries carrying >= 2 prefixes (the multi-prefix re-identification
  /// events of Section 5.3).
  [[nodiscard]] std::uint64_t multi_prefix_entries() const noexcept {
    return multi_prefix_entries_;
  }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

 private:
  std::uint64_t entries_ = 0;
  std::uint64_t prefixes_ = 0;
  std::uint64_t multi_prefix_entries_ = 0;
  std::uint64_t fingerprint_ = 14695981039346656037ULL;  // FNV offset basis
};

/// Incremental temporal correlation over the stream. Matches
/// tracking::correlate on which (rule, cookie) pairs fire: a rule fires for
/// a cookie as soon as all its prefixes have been sighted within one
/// window (in order, for ordered rules). State is O(cookies x rules x
/// rule size) -- independent of log length.
class AggregatorSink : public sb::QueryLogSink {
 public:
  explicit AggregatorSink(std::vector<tracking::CorrelationRule> rules)
      : rules_(std::move(rules)), states_per_cookie_(rules_.size()) {}

  void record(const sb::QueryLogEntry& entry) override;

  [[nodiscard]] const std::vector<tracking::CorrelationHit>& hits()
      const noexcept {
    return hits_;
  }

 private:
  struct RuleState {
    bool fired = false;
    /// Unordered: latest sighting tick per rule prefix (0 = never, stored
    /// as tick+1). Ordered: for slot j, the latest chain-start tick such
    /// that prefixes 0..j were seen in order within one window (tick+1).
    std::vector<std::uint64_t> slot_tick;
  };

  void advance(const tracking::CorrelationRule& rule, RuleState& state,
               sb::Cookie cookie, std::uint64_t tick, crypto::Prefix32 prefix);

  std::vector<tracking::CorrelationRule> rules_;
  std::size_t states_per_cookie_;
  std::map<sb::Cookie, std::vector<RuleState>> by_cookie_;
  std::vector<tracking::CorrelationHit> hits_;
};

/// Fans one stream out to several sinks (non-owning), in order.
class FanoutSink : public sb::QueryLogSink {
 public:
  explicit FanoutSink(std::vector<sb::QueryLogSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void record(const sb::QueryLogEntry& entry) override {
    for (auto* sink : sinks_) sink->record(entry);
  }

 private:
  std::vector<sb::QueryLogSink*> sinks_;
};

}  // namespace sbp::sim
