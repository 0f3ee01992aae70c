// Shared pieces of bench_suite (benchsuite/README.md).
//
// bench_suite measures the repository from outside: it times calls into
// public entry points (Engine construction and step(), the sb::Transport
// seam, net::Daemon, and the url/crypto/storage/wire functions) and reads
// the engine's own phase profile only in traced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/phase.hpp"
#include "sb/transport.hpp"
#include "sim/engine.hpp"
#include "sim/scenario/runner.hpp"
#include "sim/scenario/scenario.hpp"

namespace sbp::benchsuite {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);

/// Global operator-new calls since process start; counted only while
/// `g_count_allocs` is set, so plain runs pay one predictable branch.
extern std::atomic<std::uint64_t> g_alloc_count;
extern bool g_count_allocs;

// -- statistics --------------------------------------------------------------

/// Linear-interpolation quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// -- the host's clock --------------------------------------------------------

/// How much slower than the reference clock the host runs right now: above
/// 1 when slower. A shared host steps its clock speed between levels 20%
/// and more apart, on every CPU at once, and may stay on one for minutes;
/// no statistic inside one run can remove that. The probe times a fixed chain of dependent ALU
/// operations, code of the benchmark's own, whose time follows the clock
/// alone: the fastest of a few timings (about 2 ms in all) ÷ the kernel's
/// time at the reference clock. CPU-bound time metrics are reported at the
/// reference clock: a duration is divided by the slowdown read around it,
/// a rate multiplied by it.
[[nodiscard]] double host_slowdown();

/// getrusage(RUSAGE_SELF).ru_maxrss in MiB.
[[nodiscard]] double peak_rss_mib();
/// Current resident set from /proc/self/statm, in bytes.
[[nodiscard]] double current_rss_bytes();

// -- the result line ---------------------------------------------------------

/// What one bench_suite invocation reports: the contract's correct / attempted /
/// failed / metrics, plus the observed golden block and any failed checks.
/// Printed as one JSON object on the last line of stdout.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> problems;
  std::optional<sim::ScenarioGolden> golden;

  /// Records a metric; a NaN or infinite value fails the run.
  void metric(std::string name, double value, std::string unit);
  void fail(std::string why);
  void print() const;
};

// -- workloads ---------------------------------------------------------------

/// A workload file (scenario format) with the run's seed applied.
struct Workload {
  std::string name;
  sim::Scenario scenario;
  /// The golden block applies only at the seed it was blessed at.
  bool golden_applies = false;
};

/// Loads `path`; `seed` overrides config.seed (not config.corpus.seed).
[[nodiscard]] std::optional<Workload> load_workload(
    const std::string& path, std::optional<std::uint64_t> seed,
    std::string* error);

/// Compares an observed golden block with the workload's, when it applies.
void check_golden(const Workload& workload,
                  const sim::ScenarioGolden& observed, Result& result);

// -- the transport seam ------------------------------------------------------

/// One timed RPC through BenchTransport.
struct RpcSpan {
  std::uint64_t parent = 0;  ///< setup span (1) or tick span (2 + tick)
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  obs::Channel channel = obs::Channel::kFullHash;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
};

/// One request frame and the response frame the server produced for it.
struct CaptureRecord {
  std::uint64_t tick = 0;
  std::vector<std::uint8_t> request;
  std::vector<std::uint8_t> response;
};

/// An sb::Transport that forwards to an InProcessTransport on the engine's
/// own server. After each call it copies the inner stats() (so every
/// counter stays exact) and, when asked, records a span (whose parent is
/// *parent_span, or 0 when that is null) and/or the request/response
/// frames encoded with sb::wire. Spans and records go to caller-owned
/// per-shard vectors, so nothing is shared across threads.
class BenchTransport final : public sb::Transport {
 public:
  BenchTransport(sb::Server& server, sb::SimClock& clock,
                 const std::uint64_t* parent_span, std::vector<RpcSpan>* spans,
                 std::vector<CaptureRecord>* records)
      : Transport(clock),
        inner_(server, clock, /*round_trip_ticks=*/0),
        parent_span_(parent_span),
        spans_(spans),
        records_(records) {}

  [[nodiscard]] std::optional<sb::FullHashResponse> get_full_hashes_or_error(
      const std::vector<crypto::Prefix32>& prefixes,
      sb::Cookie cookie) override;
  [[nodiscard]] std::optional<sb::UpdateResponse> fetch_update_or_error(
      const sb::UpdateRequest& request) override;
  [[nodiscard]] std::optional<sb::V4UpdateResponse> fetch_v4_update_or_error(
      const sb::V4UpdateRequest& request) override;
  [[nodiscard]] std::optional<bool> lookup_v1_or_error(
      std::string_view url, sb::Cookie cookie) override;

 private:
  template <typename Call, typename Encode>
  auto forward(obs::Channel channel, Call&& call, Encode&& encode);

  sb::InProcessTransport inner_;
  const std::uint64_t* parent_span_;
  std::vector<RpcSpan>* spans_;
  std::vector<CaptureRecord>* records_;
};

// -- replay trace file -------------------------------------------------------

/// A captured request stream: each distinct request payload once, with the
/// response the server gave it, and the request sequence as (tick, index).
struct ReplayTrace {
  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::vector<std::uint8_t>> responses;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> sequence;
};

/// Builds a trace from capture records in canonical (tick, shard, seq)
/// order. False + *error when two equal requests got different responses.
[[nodiscard]] bool build_trace(
    const std::vector<std::vector<CaptureRecord>>& shards, ReplayTrace* out,
    std::string* error);
[[nodiscard]] std::vector<std::uint8_t> encode_trace(const ReplayTrace& trace);
[[nodiscard]] std::optional<ReplayTrace> decode_trace(
    const std::vector<std::uint8_t>& bytes, std::string* error);

// -- commands ----------------------------------------------------------------

struct Options {
  std::string workload_path;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_out;    ///< span file (traced runs)
  std::string capture_out;  ///< capture: the replay trace to write
  std::string trace_in;     ///< replay: the trace to serve
  std::string endpoint;     ///< replay: where the daemon listens
  double rate = 0.0;        ///< replay: open-loop offered rate (req/s)
  std::vector<double> rungs;  ///< replay: ladder rates (traced)
};

/// Simulation workloads. With opts.capture_out set, the fleet's request
/// stream is also recorded into a replay trace.
void run_sim(const Workload& workload, const Options& opts, Result& result);
/// The daemon workload: serves a captured trace through net::Daemon.
void run_replay(const Workload& workload, const Options& opts, Result& result);

/// Times public url/crypto/storage/wire/client entry points on inputs
/// shaped like the workload's (its corpus, its list) and at Table 2 scale.
void layer_pass(const sim::SimConfig& config, Result& result);

}  // namespace sbp::benchsuite
