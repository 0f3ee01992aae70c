// sbsim -- the scenario-runner CLI (tools/sbsim).
//
// Runs any simulation the engine can express from a declarative JSON
// scenario file (src/sim/scenario), so new workloads are data, not new
// C++ targets:
//
//   sbsim run scenarios/baseline.json [--threads N] [--out report.json]
//             [--metrics] [--metrics-out metrics.json] [--metrics-series]
//             [--prom-out metrics.prom]
//       Run one scenario, print the report JSON (and check the golden
//       block when present: a mismatch exits 2). The metrics flags turn
//       the src/obs profiling layer on and export its snapshot: a stable
//       machine-readable schema (--metrics-out, docs/observability.md),
//       Prometheus text (--prom-out), and a phase-breakdown table on
//       stderr. Reports and metrics go ONLY to their --out paths (or
//       stdout for the report); logging stays on stderr.
//   sbsim verify scenarios/ [--threads 1,2,8] [--metrics]
//       Re-run every scenario at each thread count and fail on ANY drift
//       from the checked-in goldens -- the engine's determinism contract
//       (same config => bit-identical logs at any thread count) enforced
//       as data. This is the CI gate. With --metrics the runs collect
//       profiling against the SAME goldens, proving the observability
//       layer changes no observable byte.
//   sbsim bless scenarios/foo.json [--check-threads 2]
//       Run at 1 thread, cross-check at another count, and write the
//       observed golden block back into the file (canonical formatting).
//   sbsim print scenarios/foo.json
//       Dump the fully-resolved canonical form (every knob explicit) --
//       the JSON <-> SimConfig round trip made visible.
//   sbsim list scenarios/
//       One line per scenario: name, population, protocol, description.
//   sbsim loadgen scenarios/foo.json --connect unix:/tmp/sb.sock
//       Drive the scenario's client fleet against a RUNNING sbserved
//       (tools/sbserved) over TCP or Unix sockets -- one connection per
//       shard -- and report client-side deterministic counters plus
//       request-latency percentiles. With --in-process the same fleet
//       runs against the embedded server instead; the deterministic
//       block of both reports must be identical (the network-equivalence
//       contract, docs/networking.md). Exits 3 if any request failed.
//   sbsim fuzz [--iterations N] [--seed S] [--threads 1,2,8]
//              [--out-dir DIR] [--doctor INVARIANT] [--repro FILE]
//       Seeded scenario fuzzing (docs/fuzzing.md): generate N
//       random-but-valid scenarios (sim/scenario/generator) and check
//       the golden-free invariant catalog (sim/invariants) on each --
//       thread determinism, metrics transparency, v3=v4 equivalence,
//       counter conservation, canonical JSON round trip. Same seed =>
//       identical scenario stream and identical verdicts. On failure the
//       scenario is greedily shrunk and written to --out-dir as a
//       self-contained repro JSON; `--repro FILE` re-checks such a file
//       (exit 2 iff it still fails). --doctor forces a named invariant
//       to fail -- the harness's self-test hook.
//
// Exit codes: 0 ok; 1 usage/file/parse error; 2 golden, determinism or
// invariant failure; 3 loadgen transport failure. The codes are distinct
// by contract (tests/integration/exit_codes_test.cpp pins them). See
// docs/scenarios.md for the file format.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "net/socket_transport.hpp"
#include "obs/export.hpp"
#include "obs/prom_text.hpp"
#include "sb/protocol_version.hpp"
#include "sim/invariants.hpp"
#include "sim/scenario/generator.hpp"
#include "sim/scenario/runner.hpp"
#include "sim/scenario/scenario.hpp"
#include "sim/snapshot_io.hpp"
#include "storage/raw_hash_store.hpp"
#include "storage/snapshot.hpp"
#include "util/strings.hpp"

namespace {

namespace fs = std::filesystem;
namespace json = sbp::util::json;
using sbp::sim::Scenario;

constexpr const char* kUsage =
    "usage: sbsim <command> [args]\n"
    "\n"
    "commands:\n"
    "  run <scenario.json> [--threads N] [--out report.json]\n"
    "      [--metrics] [--metrics-out FILE] [--metrics-series]\n"
    "      [--prom-out FILE]\n"
    "  verify <file-or-dir>... [--threads 1,2,8] [--metrics]\n"
    "  bless <scenario.json>... [--check-threads N]\n"
    "  print <scenario.json>\n"
    "  list <file-or-dir>...\n"
    "  loadgen <scenario.json> (--connect tcp:HOST:PORT|unix:/PATH |\n"
    "      --in-process) [--threads N] [--out report.json]\n"
    "  fuzz [--iterations N] [--seed S] [--threads 1,2,8]\n"
    "      [--out-dir DIR] [--doctor INVARIANT] [--repro FILE]\n"
    "  snapshot <state.snap>\n";

int usage_error(const char* message) {
  std::fprintf(stderr, "sbsim: %s\n%s", message, kUsage);
  return 1;
}

/// Expands files/directories into a sorted list of scenario files
/// (directories contribute their *.json entries, non-recursive).
std::optional<std::vector<std::string>> collect_scenario_files(
    const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      std::vector<std::string> in_dir;
      for (const auto& entry : fs::directory_iterator(path, ec)) {
        if (entry.path().extension() == ".json") {
          in_dir.push_back(entry.path().string());
        }
      }
      if (ec) {
        std::fprintf(stderr, "sbsim: cannot list %s: %s\n", path.c_str(),
                     ec.message().c_str());
        return std::nullopt;
      }
      std::sort(in_dir.begin(), in_dir.end());
      if (in_dir.empty()) {
        std::fprintf(stderr, "sbsim: no *.json scenarios in %s\n",
                     path.c_str());
        return std::nullopt;
      }
      files.insert(files.end(), in_dir.begin(), in_dir.end());
    } else if (fs::exists(path, ec)) {
      files.push_back(path);
    } else {
      std::fprintf(stderr, "sbsim: no such file or directory: %s\n",
                   path.c_str());
      return std::nullopt;
    }
  }
  return files;
}

std::optional<Scenario> load_or_complain(const std::string& path) {
  std::string error;
  auto scenario = sbp::sim::load_scenario(path, &error);
  if (!scenario) std::fprintf(stderr, "sbsim: %s\n", error.c_str());
  return scenario;
}

// ------------------------------- commands ----------------------------------

int cmd_run(const std::vector<std::string>& args) {
  std::string file;
  std::optional<std::size_t> threads;
  std::string out_path;
  bool metrics = false;
  bool metrics_series = false;
  std::string metrics_out;
  std::string prom_out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threads" && i + 1 < args.size()) {
      const auto parsed = sbp::util::parse_u64(args[++i]);
      if (!parsed) return usage_error("--threads needs a number");
      threads = static_cast<std::size_t>(*parsed);
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i] == "--metrics") {
      metrics = true;
    } else if (args[i] == "--metrics-series") {
      metrics = true;
      metrics_series = true;
    } else if (args[i] == "--metrics-out" && i + 1 < args.size()) {
      metrics = true;
      metrics_out = args[++i];
    } else if (args[i] == "--prom-out" && i + 1 < args.size()) {
      metrics = true;
      prom_out = args[++i];
    } else if (args[i].rfind("--", 0) == 0) {
      return usage_error(("unknown flag for run: " + args[i]).c_str());
    } else if (file.empty()) {
      file = args[i];
    } else {
      return usage_error("run takes exactly one scenario file");
    }
  }
  if (file.empty()) return usage_error("run needs a scenario file");

  auto scenario = load_or_complain(file);
  if (!scenario) return 1;
  if (metrics) {
    scenario->config.collect_metrics = true;
    if (metrics_series) scenario->config.metrics_per_tick_series = true;
  }

  std::fprintf(stderr, "running %s (%zu users x %llu ticks, %s)...\n",
               scenario->name.c_str(), scenario->config.num_users,
               static_cast<unsigned long long>(scenario->config.ticks),
               sbp::sb::protocol_version_name(scenario->config.protocol)
                   .data());
  const auto result = sbp::sim::run_scenario(*scenario, threads);

  // One-line wall-clock summary: how fast the engine chewed through the
  // population ("user ticks" = users x ticks, the engine's unit of work).
  // With metrics on it also names the pool's wake mode: the p99 wake
  // latency of a resident worker and how many batches each thread joined
  // (the caller first), of all batches.
  const double user_ticks = static_cast<double>(scenario->config.num_users) *
                            static_cast<double>(scenario->config.ticks);
  std::string pool;
  if (result.obs) {
    const sbp::obs::PoolObs& obs = result.obs->pool;
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, " dispatch_p99=%.1fus batches_joined=",
                  static_cast<double>(obs.dispatch_ns.quantile(0.99)) / 1e3);
    pool = buffer;
    for (std::size_t w = 0; w < obs.workers.size(); ++w) {
      pool += (w == 0 ? "" : ",") + std::to_string(obs.workers[w].batches);
    }
    pool += " of " + std::to_string(obs.batches);
  }
  std::fprintf(stderr,
               "done: %zu users x %llu ticks on %zu thread(s) in %.2fs "
               "(%.0f user_ticks_per_sec)%s\n",
               scenario->config.num_users,
               static_cast<unsigned long long>(scenario->config.ticks),
               result.threads_used, result.run_seconds,
               result.run_seconds > 0.0 ? user_ticks / result.run_seconds
                                        : 0.0,
               pool.c_str());

  const std::string report =
      json::dump(sbp::sim::report_to_json(*scenario, result));
  std::fputs(report.c_str(), stdout);
  if (!out_path.empty()) {
    std::string error;
    if (!sbp::sim::write_file(out_path, report, &error)) {
      std::fprintf(stderr, "sbsim: %s\n", error.c_str());
      return 1;
    }
  }

  if (result.obs) {
    // Summary table to stderr; machine-readable exports ONLY to their
    // requested paths -- never interleaved with the stdout report.
    std::fputs(sbp::obs::summary_table(*result.obs).c_str(), stderr);
    if (!metrics_out.empty()) {
      json::Value doc = sbp::obs::snapshot_to_json(*result.obs);
      doc.set("scenario", scenario->name);
      doc.set("run_seconds", result.run_seconds);
      std::string error;
      if (!sbp::sim::write_file(metrics_out, json::dump(doc), &error)) {
        std::fprintf(stderr, "sbsim: %s\n", error.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
    }
    if (!prom_out.empty()) {
      std::string error;
      if (!sbp::sim::write_file(prom_out,
                                sbp::obs::prometheus_text(*result.obs),
                                &error)) {
        std::fprintf(stderr, "sbsim: %s\n", error.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote prometheus text to %s\n",
                   prom_out.c_str());
    }
  }

  if (scenario->snapshot) {
    if (!result.snapshot_written) {
      std::fprintf(stderr, "sbsim: snapshot checkpoint failed: %s\n",
                   result.snapshot_error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote snapshot to %s\n",
                 scenario->snapshot->path.c_str());
  }

  if (scenario->golden) {
    const auto diffs =
        sbp::sim::golden_diff(result.golden(), *scenario->golden);
    if (!diffs.empty()) {
      std::fprintf(stderr,
                   "sbsim: GOLDEN MISMATCH in %s -- behaviour changed; "
                   "re-bless if intended:\n",
                   file.c_str());
      for (const std::string& diff : diffs) {
        std::fprintf(stderr, "  %s\n", diff.c_str());
      }
      return 2;
    }
  }
  return 0;
}

int cmd_verify(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  std::vector<std::size_t> threads = {1, 2, 8};
  bool with_metrics = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threads" && i + 1 < args.size()) {
      const auto parsed = sbp::util::parse_u64_list(args[++i]);
      if (!parsed) return usage_error("bad --threads list");
      threads.assign(parsed->begin(), parsed->end());
    } else if (args[i] == "--metrics") {
      with_metrics = true;
    } else if (args[i].rfind("--", 0) == 0) {
      return usage_error(("unknown flag for verify: " + args[i]).c_str());
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.empty()) return usage_error("verify needs files or directories");

  const auto files = collect_scenario_files(paths);
  if (!files) return 1;

  int failures = 0;
  for (const std::string& file : *files) {
    const auto scenario = load_or_complain(file);
    if (!scenario) {
      ++failures;
      continue;
    }
    const auto verdict =
        sbp::sim::verify_scenario(*scenario, threads, with_metrics);
    if (verdict.passed) {
      double total_seconds = 0.0;
      for (const auto& run : verdict.runs) total_seconds += run.run_seconds;
      std::printf("PASS %-28s threads", scenario->name.c_str());
      for (const auto& run : verdict.runs) {
        std::printf(" %zu", run.threads_requested);
      }
      std::printf("  fingerprint %s  (%.1fs)\n",
                  json::hex_u64(verdict.runs.front().observed.fingerprint)
                      .c_str(),
                  total_seconds);
    } else {
      ++failures;
      std::printf("FAIL %-28s (%s)\n", scenario->name.c_str(), file.c_str());
      for (const auto& failure : verdict.failures) {
        std::printf("     %s\n", failure.c_str());
      }
    }
  }
  std::printf("%zu scenario(s), %d failure(s)\n", files->size(), failures);
  return failures == 0 ? 0 : 2;
}

int cmd_bless(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  std::size_t check_threads = 2;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--check-threads" && i + 1 < args.size()) {
      // A silently-zero parse would skip the determinism cross-check --
      // the one thing bless must never do.
      const auto parsed = sbp::util::parse_u64(args[++i]);
      if (!parsed || *parsed < 2) {
        return usage_error("--check-threads needs an integer >= 2");
      }
      check_threads = static_cast<std::size_t>(*parsed);
    } else if (args[i].rfind("--", 0) == 0) {
      return usage_error(("unknown flag for bless: " + args[i]).c_str());
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.empty()) return usage_error("bless needs scenario files");

  const auto files = collect_scenario_files(paths);
  if (!files) return 1;

  for (const std::string& file : *files) {
    auto scenario = load_or_complain(file);
    if (!scenario) return 1;

    // The golden is the 1-thread run; the cross-check run must agree on
    // every golden field and every counter (run_diff, the comparison the
    // fuzz invariants gate on) or the scenario is not deterministic and
    // must not be blessed.
    Scenario bare = *scenario;
    bare.report = sbp::sim::ReportConfig{};
    const auto base = sbp::sim::run_scenario(bare, std::size_t{1});
    const auto check = sbp::sim::run_scenario(bare, check_threads);
    const auto drift = sbp::sim::run_diff(check, base);
    if (!drift.empty()) {
      std::fprintf(stderr,
                   "sbsim: %s is NOT deterministic across threads (1 vs "
                   "%zu) -- refusing to bless:\n",
                   file.c_str(), check_threads);
      for (const std::string& diff : drift) {
        std::fprintf(stderr, "  %s\n", diff.c_str());
      }
      return 2;
    }

    scenario->golden = base.golden();
    std::string error;
    if (!sbp::sim::write_file(
            file, json::dump(sbp::sim::scenario_to_json(*scenario)),
            &error)) {
      std::fprintf(stderr, "sbsim: %s\n", error.c_str());
      return 1;
    }
    std::printf("blessed %-28s fingerprint %s (%llu entries)\n",
                scenario->name.c_str(),
                json::hex_u64(base.log_fingerprint).c_str(),
                static_cast<unsigned long long>(base.log_entries));
  }
  return 0;
}

/// Latency sub-object for one transport channel, from the obs histograms
/// (wall-clock ns; NOT deterministic, reported for capacity planning).
json::Value channel_latency_json(const sbp::obs::ChannelStats& stats) {
  json::Value out{json::Object{}};
  out.set("requests", stats.request_bytes.count());
  out.set("bytes_up", stats.request_bytes.sum());
  out.set("bytes_down", stats.response_bytes.sum());
  out.set("p50_ns", stats.serve_ns.quantile(0.50));
  out.set("p90_ns", stats.serve_ns.quantile(0.90));
  out.set("p99_ns", stats.serve_ns.quantile(0.99));
  return out;
}

int cmd_loadgen(const std::vector<std::string>& args) {
  std::string file;
  std::string endpoint;
  bool in_process = false;
  std::optional<std::size_t> threads;
  std::string out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--connect" && i + 1 < args.size()) {
      endpoint = args[++i];
    } else if (args[i] == "--in-process") {
      in_process = true;
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      const auto parsed = sbp::util::parse_u64(args[++i]);
      if (!parsed) return usage_error("--threads needs a number");
      threads = static_cast<std::size_t>(*parsed);
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i].rfind("--", 0) == 0) {
      return usage_error(("unknown flag for loadgen: " + args[i]).c_str());
    } else if (file.empty()) {
      file = args[i];
    } else {
      return usage_error("loadgen takes exactly one scenario file");
    }
  }
  if (file.empty()) return usage_error("loadgen needs a scenario file");
  if (in_process == !endpoint.empty()) {
    return usage_error("loadgen needs exactly one of --connect/--in-process");
  }
  if (!endpoint.empty()) {
    std::string error;
    if (!sbp::net::parse_endpoint(endpoint, &error)) {
      return usage_error(("--connect: " + error).c_str());
    }
  }

  auto scenario = load_or_complain(file);
  if (!scenario) return 1;
  if (scenario->config.churn.epoch_ticks != 0) {
    std::fprintf(stderr,
                 "sbsim: loadgen cannot drive churn scenarios (epoch "
                 "mutation lives in the engine tick loop, not the daemon)\n");
    return 1;
  }
  scenario->config.collect_metrics = true;  // latency percentiles
  if (!endpoint.empty()) {
    // One synchronous connection per shard: the client fleet.
    scenario->config.transport_factory =
        [&endpoint](std::size_t, sbp::sb::SimClock& clock) {
          return std::make_unique<sbp::net::SocketTransport>(endpoint, clock);
        };
  }

  std::fprintf(stderr, "loadgen %s (%zu users x %llu ticks) against %s...\n",
               scenario->name.c_str(), scenario->config.num_users,
               static_cast<unsigned long long>(scenario->config.ticks),
               endpoint.empty() ? "in-process server" : endpoint.c_str());
  const auto result = sbp::sim::run_scenario(*scenario, threads);

  // The deterministic block: every field must be IDENTICAL between a
  // --connect run and an --in-process run of the same scenario/seed (the
  // CI loopback smoke compares these objects byte-for-byte). Query-log
  // observables are daemon-side in --connect mode, so they live in
  // sbserved's stats dump, not here.
  json::Value deterministic{json::Object{}};
  deterministic.set("lookups", result.metrics.lookups);
  deterministic.set("malicious_verdicts", result.metrics.malicious_verdicts);
  deterministic.set("ticks_run", result.metrics.ticks_run);
  deterministic.set("population_full_hash_requests",
                    result.population.full_hash_requests);
  deterministic.set("population_cache_answers",
                    result.population.cache_answers);
  deterministic.set("wire", json::counters_to_json(result.wire));

  json::Value report{json::Object{}};
  report.set("experiment", "loadgen");
  report.set("scenario", scenario->name);
  report.set("mode", endpoint.empty() ? "in-process" : "socket");
  if (!endpoint.empty()) report.set("endpoint", endpoint);
  report.set("threads_used", result.threads_used);
  report.set("run_seconds", result.run_seconds);
  const std::uint64_t requests =
      result.wire.full_hash_requests + result.wire.update_requests +
      result.wire.v4_update_requests + result.wire.v1_requests;
  report.set("requests", requests);
  report.set("requests_per_sec",
             result.run_seconds > 0.0
                 ? static_cast<double>(requests) / result.run_seconds
                 : 0.0);
  report.set("failed_requests", result.wire.failed_requests);
  report.set("deterministic", std::move(deterministic));
  if (result.obs) {
    json::Value latency{json::Object{}};
    for (std::size_t c = 0; c < sbp::obs::kChannelCount; ++c) {
      const auto& stats = result.obs->transport.channels[c];
      if (stats.request_bytes.count() == 0) continue;
      latency.set(
          sbp::obs::channel_name(static_cast<sbp::obs::Channel>(c)),
          channel_latency_json(stats));
    }
    report.set("latency", std::move(latency));
  }

  const std::string text = json::dump(report);
  std::fputs(text.c_str(), stdout);
  if (!out_path.empty()) {
    std::string error;
    if (!sbp::sim::write_file(out_path, text, &error)) {
      std::fprintf(stderr, "sbsim: %s\n", error.c_str());
      return 1;
    }
  }

  if (result.wire.failed_requests > 0) {
    // loadgen injects no failures, so any failure is a real transport
    // error (daemon gone, connect refused) -- the verdict stream is no
    // longer comparable.
    std::fprintf(stderr,
                 "sbsim: loadgen saw %llu failed request(s) -- transport "
                 "errors, run not comparable\n",
                 static_cast<unsigned long long>(
                     result.wire.failed_requests));
    return 3;
  }
  return 0;
}

/// The self-contained repro document `fuzz` writes for a shrunken
/// failure: provenance + verdict in "fuzz_repro", the minimized scenario
/// in "scenario" (canonical form, loadable by every other subcommand).
json::Value repro_to_json(std::uint64_t generator_seed,
                          std::uint64_t iteration,
                          const std::vector<std::size_t>& threads,
                          const std::string& doctor,
                          const sbp::sim::ShrinkResult& shrunk) {
  json::Value meta{json::Object{}};
  meta.set("generator_seed", json::hex_u64(generator_seed));
  meta.set("iteration", iteration);
  meta.set("invariant", shrunk.report.failures.front().invariant);
  meta.set("detail", shrunk.report.failures.front().detail);
  if (!doctor.empty()) meta.set("doctor", doctor);
  json::Array thread_counts;
  for (const std::size_t t : threads) {
    thread_counts.emplace_back(static_cast<std::uint64_t>(t));
  }
  meta.set("thread_counts", json::Value{std::move(thread_counts)});
  meta.set("shrink_steps_tried",
           static_cast<std::uint64_t>(shrunk.steps_tried));
  meta.set("shrink_steps_accepted",
           static_cast<std::uint64_t>(shrunk.steps_accepted));

  json::Value doc{json::Object{}};
  doc.set("fuzz_repro", std::move(meta));
  doc.set("scenario", sbp::sim::scenario_to_json(shrunk.scenario));
  return doc;
}

/// `sbsim fuzz --repro FILE`: re-check a written repro standalone,
/// applying its recorded doctor hook and thread counts (both overridable
/// on the command line). Exit 2 iff the invariant still fails.
int run_repro(const std::string& file, sbp::sim::InvariantOptions options,
              bool threads_overridden) {
  std::string text;
  std::string error;
  if (!sbp::sim::read_file(file, &text, &error)) {
    std::fprintf(stderr, "sbsim: %s\n", error.c_str());
    return 1;
  }
  const json::ParseResult parsed = json::parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "sbsim: %s: %s\n", file.c_str(),
                 parsed.error.describe(text).c_str());
    return 1;
  }
  const json::Value* scenario_doc = parsed.value->find("scenario");
  if (scenario_doc == nullptr) {
    std::fprintf(stderr, "sbsim: %s has no \"scenario\" member (not a fuzz "
                         "repro?)\n",
                 file.c_str());
    return 1;
  }
  auto loaded = sbp::sim::parse_scenario(*scenario_doc, &error);
  if (!loaded) {
    std::fprintf(stderr, "sbsim: %s: %s\n", file.c_str(), error.c_str());
    return 1;
  }
  if (const json::Value* meta = parsed.value->find("fuzz_repro")) {
    if (const json::Value* doctor = meta->find("doctor");
        doctor != nullptr && doctor->is_string() && options.doctor.empty()) {
      options.doctor = doctor->as_string();
    }
    if (const json::Value* counts = meta->find("thread_counts");
        counts != nullptr && counts->is_array() && !threads_overridden) {
      std::vector<std::size_t> threads;
      for (const json::Value& count : counts->as_array()) {
        if (count.is_integer() && count.as_int64() > 0) {
          threads.push_back(static_cast<std::size_t>(count.as_int64()));
        }
      }
      if (!threads.empty()) options.thread_counts = threads;
    }
  }

  const auto report = sbp::sim::check_invariants(*loaded, options);
  if (report.ok()) {
    std::printf("ok   %-28s %s\n", loaded->name.c_str(),
                report.summary().c_str());
    return 0;
  }
  std::printf("FAIL %-28s %s\n", loaded->name.c_str(),
              report.summary().c_str());
  return 2;
}

int cmd_fuzz(const std::vector<std::string>& args) {
  std::uint64_t iterations = 25;
  std::uint64_t seed = 1;
  std::vector<std::size_t> threads = {1, 2, 8};
  bool threads_overridden = false;
  std::string out_dir = ".";
  std::string doctor;
  std::string repro_file;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--iterations" && i + 1 < args.size()) {
      const auto parsed = sbp::util::parse_u64(args[++i]);
      if (!parsed || *parsed == 0) {
        return usage_error("--iterations needs a positive number");
      }
      iterations = *parsed;
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      char* end = nullptr;
      const std::string& text = args[++i];
      seed = std::strtoull(text.c_str(), &end, 0);  // base 0: 0x.. allowed
      if (end == text.c_str() || *end != '\0') {
        return usage_error("--seed needs a number");
      }
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      const auto parsed = sbp::util::parse_u64_list(args[++i]);
      if (!parsed) return usage_error("bad --threads list");
      threads.assign(parsed->begin(), parsed->end());
      threads_overridden = true;
    } else if (args[i] == "--out-dir" && i + 1 < args.size()) {
      out_dir = args[++i];
    } else if (args[i] == "--doctor" && i + 1 < args.size()) {
      doctor = args[++i];
    } else if (args[i] == "--repro" && i + 1 < args.size()) {
      repro_file = args[++i];
    } else if (args[i].rfind("--", 0) == 0) {
      return usage_error(("unknown flag for fuzz: " + args[i]).c_str());
    } else {
      return usage_error(("fuzz does not take positionals: " + args[i])
                             .c_str());
    }
  }
  if (!doctor.empty()) {
    const auto& names = sbp::sim::invariant_names();
    if (std::find(names.begin(), names.end(), doctor) == names.end()) {
      std::string valid;
      for (const auto& name : names) {
        if (!valid.empty()) valid += ", ";
        valid += name;
      }
      return usage_error(
          ("--doctor: unknown invariant (valid: " + valid + ")").c_str());
    }
  }

  sbp::sim::InvariantOptions options;
  options.thread_counts = threads;
  options.doctor = doctor;
  if (!repro_file.empty()) {
    return run_repro(repro_file, std::move(options), threads_overridden);
  }

  // Failures past this cap are still reported and still fail the run, but
  // are not shrunk/written -- shrinking re-runs the engine dozens of
  // times, and one systemic engine bug would otherwise turn every
  // iteration into a minimization campaign.
  constexpr std::uint64_t kMaxShrunkRepros = 3;

  std::fprintf(stderr,
               "fuzz: seed %s, %llu iteration(s), threads",
               json::hex_u64(seed).c_str(),
               static_cast<unsigned long long>(iterations));
  for (const std::size_t t : threads) std::fprintf(stderr, " %zu", t);
  std::fprintf(stderr, ", repros -> %s\n", out_dir.c_str());

  sbp::sim::ScenarioGenerator generator(seed);
  std::uint64_t failures = 0;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const Scenario scenario = generator.next();
    const auto report = sbp::sim::check_invariants(scenario, options);
    if (report.ok()) {
      std::printf("ok   %-28s %s\n", scenario.name.c_str(),
                  report.summary().c_str());
      continue;
    }
    ++failures;
    std::printf("FAIL %-28s %s\n", scenario.name.c_str(),
                report.summary().c_str());
    if (failures > kMaxShrunkRepros) continue;

    const auto shrunk = sbp::sim::shrink_failing_scenario(scenario, options);
    std::error_code ec;
    fs::create_directories(out_dir, ec);  // best effort; write reports errors
    const std::string repro_path =
        out_dir + "/" + scenario.name + "-repro.json";
    std::string error;
    if (!sbp::sim::write_file(
            repro_path,
            json::dump(repro_to_json(seed, i, threads, doctor, shrunk)),
            &error)) {
      std::fprintf(stderr, "sbsim: %s\n", error.c_str());
    } else {
      std::printf(
          "     shrunk to %zu users x %llu ticks (%zu/%zu steps), wrote "
          "%s\n",
          shrunk.scenario.config.num_users,
          static_cast<unsigned long long>(shrunk.scenario.config.ticks),
          shrunk.steps_accepted, shrunk.steps_tried, repro_path.c_str());
    }
  }
  std::printf("%llu scenario(s), %llu failure(s)\n",
              static_cast<unsigned long long>(iterations),
              static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 2;
}

int cmd_print(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage_error("print takes one scenario file");
  const auto scenario = load_or_complain(args[0]);
  if (!scenario) return 1;
  std::fputs(json::dump(sbp::sim::scenario_to_json(*scenario)).c_str(),
             stdout);
  return 0;
}

int cmd_snapshot(const std::vector<std::string>& args) {
  if (args.size() != 1 || args[0].rfind("--", 0) == 0) {
    return usage_error("snapshot takes one checkpoint file");
  }
  const std::string& file = args[0];

  std::string error;
  sbp::storage::FileBackend backend(file);
  const auto bytes = backend.load(&error);
  if (!bytes) {
    std::fprintf(stderr, "sbsim: %s\n", error.c_str());
    return 1;
  }
  sbp::storage::SnapshotError parse_error;
  const auto parsed = sbp::storage::parse_snapshot(*bytes, &parse_error);
  if (!parsed) {
    std::fprintf(stderr, "sbsim: %s: %s\n", file.c_str(),
                 parse_error.to_string().c_str());
    return 1;
  }

  // Decoding the server sections into a scratch server is the deep
  // verification: every list, chunk and digest must decode cleanly.
  sbp::sb::Server server;
  if (!server.restore_sections(*parsed, &error)) {
    std::fprintf(stderr, "sbsim: %s: %s\n", file.c_str(), error.c_str());
    return 1;
  }

  json::Value out{json::Object{}};
  out.set("file", file);
  out.set("bytes", static_cast<std::int64_t>(bytes->size()));
  out.set("format_version",
          static_cast<std::int64_t>(parsed->format_version));
  json::Value sections{json::Array{}};
  for (const auto& section : parsed->sections) {
    json::Value entry{json::Object{}};
    entry.set("id", static_cast<std::int64_t>(section.id));
    entry.set("bytes", static_cast<std::int64_t>(section.payload.size()));
    sections.as_array().push_back(std::move(entry));
  }
  out.set("sections", std::move(sections));

  if (const auto* meta =
          parsed->find(sbp::sb::snapshot_section::kEngineMeta)) {
    if (const auto engine_meta = sbp::sim::decode_engine_meta(meta->payload)) {
      json::Value engine{json::Object{}};
      engine.set("tick", static_cast<std::int64_t>(engine_meta->tick));
      engine.set("churn_epochs",
                 static_cast<std::int64_t>(engine_meta->churn_epochs));
      out.set("engine", std::move(engine));
    }
  }
  if (const auto* section =
          parsed->find(sbp::sb::snapshot_section::kQuerySink)) {
    if (const auto state =
            sbp::sim::decode_counting_sink_state(section->payload)) {
      json::Value sink{json::Object{}};
      sink.set("entries", state->entries);
      sink.set("prefixes", state->prefixes);
      sink.set("multi_prefix_entries", state->multi_prefix_entries);
      sink.set("fingerprint", json::hex_u64(state->fingerprint));
      out.set("query_log", std::move(sink));
    }
  }

  json::Value lists{json::Array{}};
  for (const std::string& name : server.list_names()) {
    const auto prefixes = server.prefixes(name);
    json::Value entry{json::Object{}};
    entry.set("name", name);
    entry.set("chunk_sequence",
              static_cast<std::int64_t>(server.chunk_sequence(name)));
    entry.set("prefixes", static_cast<std::int64_t>(prefixes.size()));
    entry.set("v4_checksum",
              json::hex_u64(sbp::storage::RawHashStore::checksum_of(prefixes)));
    lists.as_array().push_back(std::move(entry));
  }
  json::Value server_out{json::Object{}};
  server_out.set("lists", std::move(lists));
  out.set("server", std::move(server_out));

  std::fputs(json::dump(out).c_str(), stdout);
  return 0;
}

int cmd_list(const std::vector<std::string>& args) {
  if (args.empty()) return usage_error("list needs files or directories");
  const auto files = collect_scenario_files(args);
  if (!files) return 1;
  for (const std::string& file : *files) {
    const auto scenario = load_or_complain(file);
    if (!scenario) return 1;
    std::printf("%-28s %8zu users x %-5llu %-10s %s%s\n",
                scenario->name.c_str(), scenario->config.num_users,
                static_cast<unsigned long long>(scenario->config.ticks),
                sbp::sb::protocol_version_name(scenario->config.protocol)
                    .data(),
                scenario->golden ? "" : "[no golden] ",
                scenario->description.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon closing a loadgen connection mid-write must surface as an
  // errno, not kill the process.
  sbp::net::ignore_sigpipe();
  if (argc < 2) return usage_error("missing command");
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "run") return cmd_run(args);
  if (command == "loadgen") return cmd_loadgen(args);
  if (command == "fuzz") return cmd_fuzz(args);
  if (command == "verify") return cmd_verify(args);
  if (command == "bless") return cmd_bless(args);
  if (command == "print") return cmd_print(args);
  if (command == "list") return cmd_list(args);
  if (command == "snapshot") return cmd_snapshot(args);
  if (command == "--help" || command == "-h" || command == "help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  return usage_error(("unknown command: " + command).c_str());
}
