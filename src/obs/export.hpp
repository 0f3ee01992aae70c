// Snapshot exporters (src/obs): metrics.json schema + stderr summary.
//
// snapshot_to_json produces the stable machine-readable schema that
// `sbsim run --metrics-out` writes and tools/check_metrics.py validates:
//
//   {
//     "schema_version": 1,
//     "enabled": true, "threads_used": N, "ticks": T,
//     "sha256_backend": "sha-ni" | "portable",
//     "phases": { "<phase>": { "wall_ns", "spans",
//                              "span_ns": {count,sum,min,max,mean,
//                                          p50,p90,p99} }, ... },
//     "phases_by_wall": ["parallel_tick", ...],   // descending wall_ns
//     "setup": { "seed_blacklist_ns", "seal_universe_ns",
//                "build_population_ns", "total_ns" },  // engine only
//     "thread_pool": { "batches", "tasks", "dispatch_ns": {...},
//                      "busy_ns": {...}, "imbalance_items": {...},
//                      "workers": [ {busy_ns, executed, batches}, ... ] },
//     "transport": { "<channel>": { "requests", "bytes_up", "bytes_down",
//                                   "serve_ns": {...},
//                                   "request_bytes": {...},
//                                   "response_bytes": {...} }, ... },
//     "counters": { "<name>": <integer>, ... },
//     "per_tick": [ {tick, plan_ns, ...}, ... ]   // only when collected
//   }
//
// Schema rules the validator leans on: every listed key is always present
// (empty histograms export zeros, never null), all values are finite
// (mean of an empty histogram is 0, not NaN), and key order is fixed, so
// two runs of the same scenario diff cleanly.
#pragma once

#include <string>

#include "obs/snapshot.hpp"
#include "util/json/json.hpp"

namespace sbp::obs {

/// The stable metrics.json document (see header comment). Callers may
/// `set()` extra top-level context (scenario name, run_seconds) before
/// dumping; the validator treats unknown top-level keys as informational.
[[nodiscard]] util::json::Value snapshot_to_json(const Snapshot& snapshot);

/// Distribution sub-object {count,sum,min,max,mean,p50,p90,p99} -- shared
/// by every histogram in the schema (and reused by the bench exporter).
[[nodiscard]] util::json::Value histogram_to_json(const Histogram& histogram);

/// Human-oriented end-of-run table (multi-line, trailing newline): phase
/// wall-time breakdown sorted by share, pool and per-channel one-liners.
/// sbsim prints this to stderr so stdout stays machine-readable (S6).
[[nodiscard]] std::string summary_table(const Snapshot& snapshot);

}  // namespace sbp::obs
