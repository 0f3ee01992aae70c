// Live blacklist churn at population scale: what do mid-run update epochs
// cost the fleet, and what does re-sync bandwidth look like per epoch
// length? Sweeps epoch_ticks x population size over a mixed v3/v4
// population (half chunked, half sliced -- both update channels re-sync
// mid-run), with churn rates FITTED from analysis/update_dynamics
// (fit_churn_rates over a measured ChurnReport), and writes the grid into
// BENCH_churn.json (--out PATH; --users / --ticks rescale).
//
// Epoch 0 is the frozen-world baseline: its update traffic is exactly the
// construction-time cold sync, so every byte above it in the other cells
// is the price of liveness. The update channel's share of the wire is
// tracked separately (TransportStats.update_bytes_up/down), so the
// per-update average response size falls out exactly.
//
// Doubles as the churn determinism gate: the busiest churned cell re-runs
// at 2 and 8 threads and must match the single-thread run under
// sim::run_diff -- golden block plus every engine, population and wire
// counter -- or the bench names the field and exits 2. The
// population-scale companion of tests/sim/engine_churn_test.cpp.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/update_dynamics.hpp"
#include "bench_util.hpp"
#include "sim/scenario/runner.hpp"

namespace {

namespace json = sbp::util::json;
using sbp::bench::rounded;
using sbp::sim::ScenarioRunResult;

sbp::analysis::ChurnRates fitted_rates() {
  // The update-dynamics bridge: measure a paper-shaped churn run over the
  // real protocol stack, fit per-round rates, drive the population's
  // epochs with them.
  sbp::analysis::ChurnConfig config;
  config.initial_entries = 4000;
  config.adds_per_round = 60;  // 1.5%/round, the paper's daily turnover
  config.removals_per_round = 60;
  config.rounds = 6;
  config.seed = 7;
  return sbp::analysis::fit_churn_rates(sbp::analysis::simulate_churn(config));
}

sbp::sim::Scenario cell_scenario(std::size_t users, std::uint64_t ticks,
                                 std::uint64_t epoch_ticks,
                                 sbp::analysis::ChurnRates rates) {
  sbp::sim::Scenario scenario;
  scenario.name = "update-churn";
  sbp::sim::SimConfig& config = scenario.config;
  config.num_users = users;
  config.ticks = ticks;
  config.num_shards = 16;
  config.seed = 2016;
  config.corpus.num_hosts = 10000;
  config.corpus.seed = 2016;
  config.corpus.max_pages = 300;
  config.blacklist.page_fraction = 0.01;
  config.blacklist.site_fraction = 0.002;
  config.blacklist.max_entries = 2048;
  // Mixed generations: both the v3 chunk and the v4 slice channel carry
  // mid-run re-syncs.
  config.mix_fraction = 0.5;
  config.mix_protocol = sbp::sb::ProtocolVersion::kV4Sliced;
  config.churn.epoch_ticks = epoch_ticks;
  config.churn.add_rate = rates.add_rate;
  config.churn.remove_rate = rates.remove_rate;
  return scenario;
}

std::uint64_t update_requests(const ScenarioRunResult& cell) {
  return cell.wire.update_requests + cell.wire.v4_update_requests;
}

double bytes_per_update(const ScenarioRunResult& cell) {
  const std::uint64_t updates = update_requests(cell);
  return updates > 0 ? static_cast<double>(cell.wire.update_bytes_down) /
                           static_cast<double>(updates)
                     : 0.0;
}

json::Value cell_entry(std::size_t users, std::uint64_t epoch_ticks,
                       const ScenarioRunResult& cell) {
  json::Value entry{json::Object{}};
  entry.set("users", std::uint64_t{users});
  entry.set("epoch_ticks", epoch_ticks);
  entry.set("epochs", cell.metrics.churn_events);
  entry.set("churn_adds", cell.metrics.churn_adds);
  entry.set("churn_removes", cell.metrics.churn_removes);
  entry.set("resyncs", cell.metrics.churn_updates);
  entry.set("v3_update_requests", cell.wire.update_requests);
  entry.set("v4_update_requests", cell.wire.v4_update_requests);
  entry.set("update_bytes_up", cell.wire.update_bytes_up);
  entry.set("update_bytes_down", cell.wire.update_bytes_down);
  entry.set("bytes_per_update", rounded(bytes_per_update(cell), 2));
  entry.set("wire_bytes_up", cell.wire.bytes_up);
  entry.set("wire_bytes_down", cell.wire.bytes_down);
  entry.set("full_hash_requests", cell.wire.full_hash_requests);
  entry.set("url_cache_invalidations", cell.metrics.url_cache_invalidations);
  entry.set("log_entries", cell.log_entries);
  entry.set("run_seconds", rounded(cell.run_seconds, 3));
  entry.set("user_ticks_per_sec",
            rounded(static_cast<double>(users) *
                        static_cast<double>(cell.metrics.ticks_run) /
                        cell.run_seconds,
                    0));
  entry.set("log_fingerprint", json::hex_u64(cell.log_fingerprint));
  return entry;
}

}  // namespace

int main(int argc, char** argv) {
  sbp::bench::Args args(argc, argv);
  const std::size_t base_users = args.size_flag("--users", 8000);
  const std::uint64_t ticks = args.u64_flag("--ticks", 60);
  const std::string out_path = args.string_flag("--out", "BENCH_churn.json");
  if (!args.finish()) return 1;

  sbp::bench::header("update_churn",
                     "mid-run update epochs x population size; mixed v3/v4 "
                     "re-sync bandwidth; churn determinism gate");
  const sbp::analysis::ChurnRates rates = fitted_rates();
  std::printf("churn rates fitted from update_dynamics: add %.4f / remove "
              "%.4f per epoch (paper: ~0.015 daily)\n\n",
              rates.add_rate, rates.remove_rate);

  const auto at_least_one = [](std::uint64_t value) {
    return value > 0 ? value : 1;
  };
  const std::vector<std::uint64_t> epoch_sweep = {
      0, at_least_one(ticks / 3), at_least_one(ticks / 6),
      at_least_one(ticks / 12)};
  const std::vector<std::size_t> user_sweep = {base_users / 4, base_users};

  std::printf("%8s %7s %8s %8s %9s %12s %14s %10s\n", "users", "epoch",
              "epochs", "resyncs", "updates", "upd B down", "B/update",
              "run s");
  json::Array sweep;
  for (const std::size_t users : user_sweep) {
    for (const std::uint64_t epoch : epoch_sweep) {
      const ScenarioRunResult cell = sbp::sim::run_scenario(
          cell_scenario(users, ticks, epoch, rates), /*threads=*/0);
      std::printf("%8zu %7llu %8llu %8llu %9llu %12llu %14.1f %10.3f\n",
                  users, static_cast<unsigned long long>(epoch),
                  static_cast<unsigned long long>(cell.metrics.churn_events),
                  static_cast<unsigned long long>(cell.metrics.churn_updates),
                  static_cast<unsigned long long>(update_requests(cell)),
                  static_cast<unsigned long long>(cell.wire.update_bytes_down),
                  bytes_per_update(cell), cell.run_seconds);
      sweep.push_back(cell_entry(users, epoch, cell));
    }
  }

  // Determinism gate on the busiest churned cell (smallest epoch, largest
  // population): 2 and 8 threads must match the 1-thread run.
  const std::uint64_t gate_epoch = epoch_sweep.back();
  const sbp::sim::Scenario gate =
      cell_scenario(base_users, ticks, gate_epoch, rates);
  const ScenarioRunResult base = sbp::sim::run_scenario(gate, 1);
  bool deterministic = true;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const std::vector<std::string> diffs =
        sbp::sim::run_diff(sbp::sim::run_scenario(gate, threads), base);
    if (diffs.empty()) continue;
    deterministic = false;
    std::fprintf(stderr,
                 "DETERMINISM FAILURE under churn: %zu threads diverged from "
                 "1 thread:\n",
                 threads);
    for (const std::string& diff : diffs) {
      std::fprintf(stderr, "  %s\n", diff.c_str());
    }
  }
  std::printf("\nchurn determinism (threads 1/2/8, epoch %llu): %s\n",
              static_cast<unsigned long long>(gate_epoch),
              deterministic ? "BIT-IDENTICAL" : "DIVERGED");

  json::Value doc{json::Object{}};
  doc.set("experiment", "update_churn");
  doc.set("base_users", std::uint64_t{base_users});
  doc.set("ticks", ticks);
  doc.set("mix_fraction", 0.5);
  doc.set("fitted_add_rate", rounded(rates.add_rate, 6));
  doc.set("fitted_remove_rate", rounded(rates.remove_rate, 6));
  doc.set("sweep", std::move(sweep));
  doc.set("deterministic_across_threads", deterministic);
  if (!sbp::bench::write_json(doc, out_path)) return 1;
  return deterministic ? 0 : 2;
}
