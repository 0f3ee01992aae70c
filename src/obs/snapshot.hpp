// End-of-run metrics snapshot (src/obs).
//
// The engine assembles one Snapshot after the last tick: its serial-phase
// profile plus every shard's plan/lookup profile, transport channels and
// counters, merged in canonical shard order (shard 0 first). The snapshot
// is the single input to all three exporters -- metrics.json
// (export.hpp), Prometheus text (prom_text.hpp) and the stderr summary
// table -- so the formats can never disagree about the numbers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/lock.hpp"
#include "obs/phase.hpp"
#include "util/counters.hpp"

namespace sbp::obs {

/// Wall time of the engine's construction, by step (metrics on only). The
/// steps run one after another inside the constructor, so they sum to at
/// most its total; the remainder is the server, the traffic model, the
/// churn schedule, any server_setup hook and the thread pool.
struct SetupTimes {
  std::uint64_t seed_blacklist_ns = 0;    ///< Engine::seed_blacklist
  std::uint64_t seal_universe_ns = 0;     ///< seal every list + the universe
  std::uint64_t build_population_ns = 0;  ///< clients and their first syncs
  std::uint64_t total_ns = 0;             ///< the whole constructor
};

struct Snapshot {
  bool enabled = false;
  std::size_t threads_used = 0;
  std::uint64_t ticks = 0;

  /// Serial phases from the engine + plan/lookup merged over shards.
  PhaseProfile phases;
  /// Thread-pool internals (zero batches when the run was sequential).
  PoolObs pool;
  /// The engine's setup breakdown; empty for the daemon.
  std::optional<SetupTimes> setup;
  /// The shared-state mutexes by name (obs::TimedMutex): acquisitions,
  /// plus wait and hold times when metrics were on. Empty for the daemon.
  std::vector<std::pair<std::string, LockStats>> locks;
  /// Wire channels merged over shards in canonical order.
  TransportObs transport;
  /// Counters in export order, appended from kCounters tables
  /// (util::append_counters): the engine's match the scenario report's
  /// "metrics" object name for name.
  util::CounterList counters;
  /// Optional per-tick phase series (config.metrics_per_tick_series).
  std::vector<TickSample> per_tick;
};

}  // namespace sbp::obs
