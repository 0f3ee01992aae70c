// Snapshot persistence bench (docs/persistence.md): what does a
// checkpoint cost, what does a restore cost, and how do both compare to
// rebuilding the serving state cold from expressions?
//
// For each database size (default 20k and 100k prefixes) the bench
// builds a chunked two-list server, then measures:
//   * cold_build_ms   -- constructing the state from scratch (one sha256
//                        per expression, chunk sealing every 4096 adds),
//   * checkpoint_ms   -- Server::checkpoint_bytes() (encode + checksum),
//   * restore_ms      -- Server::restore_bytes() into a fresh server,
//   * snapshot_bytes  -- the container size on the wire/disk,
//   * restore_identical -- re-checkpointing the restored server
//                        reproduces the snapshot byte for byte (the
//                        fixpoint contract; hardware-independent).
//
// Artifact: BENCH_snapshot.json, gated by tools/compare_bench.py
// (check_snapshot): the fixpoint must hold, restore must not be slower
// than the cold rebuild it replaces, and the byte size may not silently
// balloon against the committed baseline.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sb/server.hpp"
#include "storage/snapshot.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr const char* kLists[] = {"goog-malware-shavar",
                                  "goog-phish-shavar"};
constexpr std::size_t kChunkEntries = 4096;

sbp::sb::Server build_server(std::size_t prefixes) {
  sbp::sb::Server server;
  for (const char* list : kLists) server.create_list(list);
  for (std::size_t i = 0; i < prefixes; ++i) {
    const char* list = kLists[i % 2];
    server.add_expression(list,
                          "host" + std::to_string(i) + ".example.com/");
    if ((i + 1) % kChunkEntries == 0) server.seal_chunk(list);
  }
  for (const char* list : kLists) server.seal_chunk(list);
  return server;
}

struct SizeResult {
  std::size_t prefixes = 0;
  double cold_build_ms = 0.0;
  double checkpoint_ms = 0.0;
  double restore_ms = 0.0;
  std::size_t snapshot_bytes = 0;
  bool restore_identical = false;
};

SizeResult run_size(std::size_t prefixes, int reps) {
  SizeResult result;
  result.prefixes = prefixes;

  // Best-of-reps on every timed phase: the artifact should carry the
  // cost of the operation, not of a scheduler hiccup.
  result.cold_build_ms = 1e300;
  sbp::sb::Server server;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    server = build_server(prefixes);
    result.cold_build_ms = std::min(result.cold_build_ms, ms_since(start));
  }

  result.checkpoint_ms = 1e300;
  std::vector<std::uint8_t> snapshot;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    snapshot = server.checkpoint_bytes();
    result.checkpoint_ms = std::min(result.checkpoint_ms, ms_since(start));
  }
  result.snapshot_bytes = snapshot.size();

  result.restore_ms = 1e300;
  sbp::sb::Server restored;
  for (int rep = 0; rep < reps; ++rep) {
    std::string error;
    const auto start = Clock::now();
    if (!restored.restore_bytes(snapshot, &error)) {
      std::fprintf(stderr, "restore failed: %s\n", error.c_str());
      return result;
    }
    result.restore_ms = std::min(result.restore_ms, ms_since(start));
  }
  result.restore_identical = restored.checkpoint_bytes() == snapshot;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sbp::bench::Args args(argc, argv);
  const std::size_t small = args.size_flag("--small", 20000);
  const std::size_t large = args.size_flag("--large", 100000);
  const int reps = static_cast<int>(args.size_flag("--reps", 3));
  const std::string out_path =
      args.string_flag("--out", "BENCH_snapshot.json");
  if (!args.finish()) return 1;

  sbp::bench::header("snapshot",
                     "checkpoint/restore cost vs cold rebuild "
                     "(docs/persistence.md)");

  namespace json = sbp::util::json;
  json::Array sizes;
  bool all_identical = true;
  for (const std::size_t prefixes : {small, large}) {
    const SizeResult r = run_size(prefixes, reps);
    all_identical = all_identical && r.restore_identical;
    std::printf(
        "%8zu prefixes: cold build %8.2f ms | checkpoint %7.2f ms | "
        "restore %7.2f ms | %zu bytes (%.1f B/prefix) | fixpoint %s\n",
        r.prefixes, r.cold_build_ms, r.checkpoint_ms, r.restore_ms,
        r.snapshot_bytes,
        static_cast<double>(r.snapshot_bytes) /
            static_cast<double>(r.prefixes),
        r.restore_identical ? "yes" : "NO");
    json::Value entry{json::Object{}};
    entry.set("prefixes", std::uint64_t{r.prefixes});
    entry.set("cold_build_ms", sbp::bench::rounded(r.cold_build_ms, 3));
    entry.set("checkpoint_ms", sbp::bench::rounded(r.checkpoint_ms, 3));
    entry.set("restore_ms", sbp::bench::rounded(r.restore_ms, 3));
    entry.set("snapshot_bytes", std::uint64_t{r.snapshot_bytes});
    entry.set("restore_identical", r.restore_identical);
    sizes.push_back(std::move(entry));
  }
  json::Value doc{json::Object{}};
  doc.set("experiment", "snapshot");
  doc.set("sizes", std::move(sizes));
  doc.set("restore_identical", all_identical);
  if (!sbp::bench::write_json(doc, out_path)) return 1;
  return all_identical ? 0 : 1;
}
