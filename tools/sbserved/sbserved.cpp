// sbserved -- the Safe Browsing provider as a network daemon
// (tools/sbserved).
//
// Serves the byte-level wire protocol (v1 lookups, v3/v4 updates, shared
// full-hash exchange) over TCP and/or Unix stream sockets, against the
// SAME server state an in-process scenario run would build: the scenario
// file's corpus + blacklist + seed, constructed through sim::Engine with
// num_users forced to 0 (blacklist seeding is a function of corpus and
// seed only, never of population size). A client fleet driven by `sbsim
// loadgen --connect` therefore sees bit-identical responses -- and leaves
// a bit-identical query log -- to the same scenario run in-process (the
// equivalence contract; docs/networking.md, tests/net).
//
//   sbserved <scenario.json> --listen tcp:127.0.0.1:8945
//            [--listen unix:/tmp/sb.sock]... [--config daemon.json]
//            [--metrics-out FILE] [--prom-out FILE] [--stats-out FILE]
//            [--endpoints-out FILE] [--drain-ms N]
//
// A --config file is a JSON object with the long-form spelling of the
// same knobs: {"scenario": PATH, "listen": [ENDPOINT...],
// "metrics_out": PATH, "prom_out": PATH, "stats_out": PATH,
// "endpoints_out": PATH, "drain_ms": N}. CLI flags win; --listen appends.
//
// Signals: SIGINT/SIGTERM drain pending responses (bounded by --drain-ms)
// and exit 0 after writing the requested exports; SIGHUP dumps the stats
// JSON to stderr without stopping. SIGPIPE is ignored process-wide.
//
// The stats JSON carries the daemon-side deterministic observables --
// most importantly the query-log fingerprint (CountingSink, constant
// memory) that the loopback smoke test compares against the in-process
// golden. Scenarios with churn are rejected: epoch mutation is driven by
// the engine's tick loop, which a daemon doesn't have.
//
// Persistence (docs/persistence.md): --snapshot PATH names the checkpoint
// file; --restore replaces the seeded state with the snapshot's at boot
// (this is how a daemon serves mid-churn state: a scenario run checkpoints
// at an epoch boundary, the daemon restores it -- so churn scenarios ARE
// accepted under --restore); --checkpoint-on SIGUSR1 writes the snapshot
// (atomic write-then-rename) whenever SIGUSR1 arrives. The daemon's state
// is static between signals, so every SIGUSR1 checkpoint is sealed by
// construction. Snapshot failures at boot exit with the distinct code 4
// and never serve partial state.
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/daemon.hpp"
#include "net/socket.hpp"
#include "obs/export.hpp"
#include "obs/prom_text.hpp"
#include "sim/engine.hpp"
#include "sim/log_sink.hpp"
#include "sim/scenario/scenario.hpp"
#include "sim/snapshot_io.hpp"
#include "storage/snapshot.hpp"
#include "util/json/json.hpp"
#include "util/strings.hpp"

namespace {

namespace json = sbp::util::json;

constexpr const char* kUsage =
    "usage: sbserved <scenario.json> --listen ENDPOINT [--listen ENDPOINT]\n"
    "                [--config daemon.json] [--metrics-out FILE]\n"
    "                [--prom-out FILE] [--stats-out FILE]\n"
    "                [--endpoints-out FILE] [--drain-ms N]\n"
    "                [--snapshot FILE] [--restore]\n"
    "                [--checkpoint-on SIGUSR1]\n"
    "\n"
    "ENDPOINT is tcp:HOST:PORT (port 0 = ephemeral) or unix:/PATH.\n"
    "SIGINT/SIGTERM: graceful drain + exports + exit 0. SIGHUP: stats to\n"
    "stderr. --restore boots from the --snapshot file (exit 4 if it is\n"
    "missing or corrupt); --checkpoint-on SIGUSR1 rewrites it on signal.\n";

/// Distinct from 1 (usage/scenario errors) so the fault-injection suite
/// can pin "refused a bad snapshot" apart from "bad invocation".
constexpr int kExitSnapshotError = 4;

int usage_error(const char* message) {
  std::fprintf(stderr, "sbserved: %s\n%s", message, kUsage);
  return 1;
}

// Signal flags; the poll loop observes them between reactor steps
// (poll(2) is not restarted by SA_RESTART, so delivery wakes it).
volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_hup = 0;
volatile std::sig_atomic_t g_usr1 = 0;

void on_stop(int) { g_stop = 1; }
void on_hup(int) { g_hup = 1; }
void on_usr1(int) { g_usr1 = 1; }

struct Options {
  std::string scenario_path;
  std::vector<std::string> listen;
  std::string metrics_out;
  std::string prom_out;
  std::string stats_out;
  std::string endpoints_out;
  int drain_ms = 2000;
  std::string snapshot_path;
  bool restore = false;
  bool checkpoint_on_usr1 = false;
};

/// --drain-ms / "drain_ms": milliseconds as a non-negative int, read with
/// the shared strict integer reader ("abc" and "-5" are errors, never 0).
std::optional<int> parse_drain_ms(std::string_view text) {
  const auto value = sbp::util::parse_u64(text);
  if (!value || *value > static_cast<std::uint64_t>(INT_MAX)) {
    return std::nullopt;
  }
  return static_cast<int>(*value);
}

bool load_config_file(const std::string& path, Options* options,
                      std::string* error) {
  std::string text;
  if (!sbp::sim::read_file(path, &text, error)) return false;
  const json::ParseResult parsed = json::parse(text);
  if (!parsed.ok()) {
    *error = path + ": " + parsed.error.describe(text);
    return false;
  }
  if (!parsed.value->is_object()) {
    *error = path + ": config must be a JSON object";
    return false;
  }
  for (const auto& [key, value] : parsed.value->as_object()) {
    if (key == "scenario" && value.is_string()) {
      options->scenario_path = value.as_string();
    } else if (key == "listen" && value.is_array()) {
      for (const auto& endpoint : value.as_array()) {
        if (!endpoint.is_string()) {
          *error = path + ": listen entries must be strings";
          return false;
        }
        options->listen.push_back(endpoint.as_string());
      }
    } else if (key == "metrics_out" && value.is_string()) {
      options->metrics_out = value.as_string();
    } else if (key == "prom_out" && value.is_string()) {
      options->prom_out = value.as_string();
    } else if (key == "stats_out" && value.is_string()) {
      options->stats_out = value.as_string();
    } else if (key == "endpoints_out" && value.is_string()) {
      options->endpoints_out = value.as_string();
    } else if (key == "drain_ms") {
      // The value's JSON text through the CLI's reader: strings, floats,
      // negatives and values past INT_MAX are rejected alike.
      const auto drain_ms = parse_drain_ms(json::dump(value, 0));
      if (!drain_ms) {
        *error = path + ": drain_ms must be a non-negative integer";
        return false;
      }
      options->drain_ms = *drain_ms;
    } else if (key == "snapshot" && value.is_string()) {
      options->snapshot_path = value.as_string();
    } else if (key == "restore" && value.is_bool()) {
      options->restore = value.as_bool();
    } else {
      *error = path + ": unknown or mistyped config key '" + key + "'";
      return false;
    }
  }
  return true;
}

json::Value stats_to_json(const sbp::net::Daemon& daemon,
                          const sbp::sim::CountingSink& log) {
  json::Value out{json::Object{}};
  for (const auto& [name, value] : daemon.snapshot().counters) {
    out.set(name, value);
  }
  out.set("open_connections", daemon.open_connections());

  out.set("wire", json::counters_to_json(daemon.transport_stats()));

  // The daemon-side query log, reduced to the constant-memory
  // deterministic observables the equivalence contract compares.
  json::Value log_out{json::Object{}};
  log_out.set("entries", log.entries());
  log_out.set("prefixes", log.prefixes());
  log_out.set("multi_prefix_entries", log.multi_prefix_entries());
  log_out.set("fingerprint", json::hex_u64(log.fingerprint()));
  out.set("query_log", std::move(log_out));

  json::Value endpoints{json::Array{}};
  for (const std::string& endpoint : daemon.listen_endpoints()) {
    endpoints.as_array().emplace_back(endpoint);
  }
  out.set("endpoints", std::move(endpoints));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  sbp::net::ignore_sigpipe();

  Options options;
  std::string config_path;
  std::vector<std::string> args(argv + 1, argv + argc);
  // First pass: --config only, so CLI flags override file values.
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--config" && i + 1 < args.size()) config_path = args[i + 1];
  }
  if (!config_path.empty()) {
    std::string error;
    if (!load_config_file(config_path, &options, &error)) {
      std::fprintf(stderr, "sbserved: %s\n", error.c_str());
      return 1;
    }
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--config" && i + 1 < args.size()) {
      ++i;  // consumed above
    } else if (args[i] == "--listen" && i + 1 < args.size()) {
      options.listen.push_back(args[++i]);
    } else if (args[i] == "--metrics-out" && i + 1 < args.size()) {
      options.metrics_out = args[++i];
    } else if (args[i] == "--prom-out" && i + 1 < args.size()) {
      options.prom_out = args[++i];
    } else if (args[i] == "--stats-out" && i + 1 < args.size()) {
      options.stats_out = args[++i];
    } else if (args[i] == "--endpoints-out" && i + 1 < args.size()) {
      options.endpoints_out = args[++i];
    } else if (args[i] == "--drain-ms" && i + 1 < args.size()) {
      const auto drain_ms = parse_drain_ms(args[++i]);
      if (!drain_ms) {
        return usage_error("--drain-ms needs a non-negative integer");
      }
      options.drain_ms = *drain_ms;
    } else if (args[i] == "--snapshot" && i + 1 < args.size()) {
      options.snapshot_path = args[++i];
    } else if (args[i] == "--restore") {
      options.restore = true;
    } else if (args[i] == "--checkpoint-on" && i + 1 < args.size()) {
      if (args[++i] != "SIGUSR1") {
        return usage_error("--checkpoint-on only supports SIGUSR1");
      }
      options.checkpoint_on_usr1 = true;
    } else if (args[i].rfind("--", 0) == 0) {
      return usage_error(("unknown flag: " + args[i]).c_str());
    } else if (options.scenario_path.empty()) {
      options.scenario_path = args[i];
    } else {
      return usage_error("exactly one scenario file");
    }
  }
  if (options.scenario_path.empty()) {
    return usage_error("a scenario file is required (CLI or --config)");
  }
  if (options.listen.empty()) {
    return usage_error("at least one --listen endpoint is required");
  }
  if ((options.restore || options.checkpoint_on_usr1) &&
      options.snapshot_path.empty()) {
    return usage_error("--restore/--checkpoint-on require --snapshot FILE");
  }

  std::string error;
  auto scenario = sbp::sim::load_scenario(options.scenario_path, &error);
  if (!scenario) {
    std::fprintf(stderr, "sbserved: %s\n", error.c_str());
    return 1;
  }
  if (scenario->config.churn.epoch_ticks != 0 && !options.restore) {
    std::fprintf(stderr,
                 "sbserved: scenario '%s' uses churn, which is driven by "
                 "the engine tick loop -- a daemon cannot serve it "
                 "(checkpoint an epoch boundary with a scenario snapshot "
                 "block and boot with --snapshot FILE --restore)\n",
                 scenario->name.c_str());
    return 1;
  }

  // Build the provider state exactly as an in-process run would (same
  // corpus, same seed, same seeding walk), minus the population.
  scenario->config.num_users = 0;
  scenario->config.collect_metrics = false;  // the daemon has its own obs
  std::fprintf(stderr, "sbserved: seeding '%s' from %s...\n",
               scenario->name.c_str(), options.scenario_path.c_str());
  sbp::sim::Engine engine(scenario->config);

  sbp::sim::CountingSink log_sink;
  engine.attach_sink(&log_sink, /*retain_in_memory=*/false);

  sbp::storage::FileBackend snapshot_backend(options.snapshot_path);
  if (options.restore) {
    // Refuse to serve anything on failure: a daemon that silently fell
    // back to the seeded state would hand a resuming fleet wrong chunk
    // sequences.
    sbp::sim::RestoreInfo info;
    if (!sbp::sim::restore_engine(engine, &log_sink, snapshot_backend, &info,
                                  &error)) {
      std::fprintf(stderr, "sbserved: snapshot restore failed: %s\n",
                   error.c_str());
      return kExitSnapshotError;
    }
    std::fprintf(stderr,
                 "sbserved: restored %s (tick %llu, churn epoch %llu, "
                 "query-log fingerprint continued: %s)\n",
                 options.snapshot_path.c_str(),
                 static_cast<unsigned long long>(info.meta.tick),
                 static_cast<unsigned long long>(info.meta.churn_epochs),
                 info.had_sink_state ? "yes" : "no");
  }

  sbp::net::Daemon daemon(engine.server());
  for (const std::string& endpoint : options.listen) {
    if (!daemon.listen(endpoint, &error)) {
      std::fprintf(stderr, "sbserved: %s\n", error.c_str());
      return 1;
    }
  }
  for (const std::string& endpoint : daemon.listen_endpoints()) {
    std::fprintf(stderr, "sbserved: listening on %s\n", endpoint.c_str());
  }
  if (!options.endpoints_out.empty()) {
    std::string text;
    for (const std::string& endpoint : daemon.listen_endpoints()) {
      text += endpoint;
      text += '\n';
    }
    if (!sbp::sim::write_file(options.endpoints_out, text, &error)) {
      std::fprintf(stderr, "sbserved: %s\n", error.c_str());
      return 1;
    }
  }

  std::signal(SIGINT, on_stop);
  std::signal(SIGTERM, on_stop);
  std::signal(SIGHUP, on_hup);
  if (options.checkpoint_on_usr1) std::signal(SIGUSR1, on_usr1);

  while (g_stop == 0) {
    daemon.poll_once(/*timeout_ms=*/200);
    if (g_hup != 0) {
      g_hup = 0;
      const std::string stats = json::dump(stats_to_json(daemon, log_sink));
      std::fprintf(stderr, "%s\n", stats.c_str());
    }
    if (g_usr1 != 0) {
      g_usr1 = 0;
      // Runs between reactor steps, so no request is mid-mutation; the
      // serving state is sealed and the write is atomic (temp + rename).
      if (sbp::sim::checkpoint_engine(engine, &log_sink, snapshot_backend,
                                      &error)) {
        std::fprintf(stderr, "sbserved: checkpoint written to %s\n",
                     options.snapshot_path.c_str());
      } else {
        std::fprintf(stderr, "sbserved: checkpoint failed: %s\n",
                     error.c_str());
      }
    }
  }

  std::fprintf(stderr, "sbserved: draining (%d ms budget)...\n",
               options.drain_ms);
  daemon.shutdown(options.drain_ms);

  const std::string stats = json::dump(stats_to_json(daemon, log_sink));
  std::fprintf(stderr, "%s\n", stats.c_str());
  if (!options.stats_out.empty() &&
      !sbp::sim::write_file(options.stats_out, stats, &error)) {
    std::fprintf(stderr, "sbserved: %s\n", error.c_str());
    return 1;
  }
  if (!options.metrics_out.empty()) {
    json::Value doc = sbp::obs::snapshot_to_json(daemon.snapshot());
    doc.set("scenario", scenario->name);
    if (!sbp::sim::write_file(options.metrics_out, json::dump(doc), &error)) {
      std::fprintf(stderr, "sbserved: %s\n", error.c_str());
      return 1;
    }
  }
  if (!options.prom_out.empty() &&
      !sbp::sim::write_file(
          options.prom_out,
          sbp::obs::prometheus_text(daemon.snapshot(), "sbserved"), &error)) {
    std::fprintf(stderr, "sbserved: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "sbserved: clean exit (%llu frames served)\n",
               static_cast<unsigned long long>(daemon.stats().frames_served));
  return 0;
}
