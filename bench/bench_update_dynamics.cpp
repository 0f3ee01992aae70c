// Ablation (DESIGN.md, Sections 2.2.2 / 7.1 claims): blacklist churn.
// Quantifies WHY the dynamic lists forced delta-coded tables over Bloom
// filters (incremental diffs vs full re-ships) and how quickly a
// day-zero crawl's inversion knowledge decays. Results land in
// BENCH_update.json (--out PATH; first positional arg = entry count),
// including the per-round rates fit_churn_rates recovers -- the numbers a
// SimConfig.churn block needs to reproduce these dynamics at population
// scale (bench_update_churn does exactly that).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "analysis/update_dynamics.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace sbp;
  bench::Args args(argc, argv);
  // Flags before positionals: the positional scan must not see "--out"'s
  // value as a candidate.
  const std::string out_path = args.string_flag("--out", "BENCH_update.json");
  const std::size_t entries = args.positional_size(20000);
  if (!args.finish() || entries == 0) {
    std::fprintf(stderr, "usage: %s [entries > 0] [--out PATH]\n", argv[0]);
    return 1;
  }
  bench::header("Update dynamics",
                "incremental vs full sync; day-0 inversion decay");
  // Paper context: Google reported ~9500 new malicious sites/day against
  // a ~630k-prefix database (~1.5%/day churn).
  analysis::ChurnConfig config;
  config.initial_entries = entries;
  config.adds_per_round =
      static_cast<std::size_t>(static_cast<double>(entries) * 0.015);
  config.removals_per_round =
      static_cast<std::size_t>(static_cast<double>(entries) * 0.015);
  config.rounds = 14;  // two weeks of daily updates
  config.seed = 7;

  std::printf("database: %zu prefixes; churn: %zu adds + %zu removals per "
              "round (paper: ~9500 new sites/day on ~630k prefixes)\n\n",
              config.initial_entries, config.adds_per_round,
              config.removals_per_round);

  const auto report = analysis::simulate_churn(config);
  std::printf("%6s %16s %16s %14s %12s\n", "round", "incr. bytes",
              "full-dl bytes", "client size", "day0 valid");
  for (const auto& row : report.rounds) {
    std::printf("%6zu %16llu %16llu %14zu %11.1f%%\n", row.round,
                static_cast<unsigned long long>(row.incremental_bytes),
                static_cast<unsigned long long>(row.full_download_bytes),
                row.client_prefixes,
                row.day0_knowledge_fraction * 100.0);
  }
  std::printf("\ntotals over %zu rounds: incremental %llu B, full-download "
              "%llu B (%.1fx more), Bloom re-ship %llu B (%.0fx more)\n",
              config.rounds,
              static_cast<unsigned long long>(
                  report.total_incremental_bytes),
              static_cast<unsigned long long>(
                  report.total_full_download_bytes),
              static_cast<double>(report.total_full_download_bytes) /
                  static_cast<double>(report.total_incremental_bytes),
              static_cast<unsigned long long>(
                  report.total_bloom_reship_bytes),
              static_cast<double>(report.total_bloom_reship_bytes) /
                  static_cast<double>(report.total_incremental_bytes));
  bench::note("the chunked protocol ships ~2 orders of magnitude less than "
              "full re-downloads and ~3-4 orders less than Bloom re-ships "
              "(Section 2.2.2's rationale); day-0 inversion knowledge "
              "decays ~1.5%/round (Section 7.1: reconstruction requires "
              "CONTINUOUS crawling).");

  const analysis::ChurnRates rates = analysis::fit_churn_rates(report);
  std::printf("fitted per-round churn rates: add %.4f / remove %.4f "
              "(SimConfig.churn defaults: %.4f)\n",
              rates.add_rate, rates.remove_rate,
              analysis::paper_daily_churn_rates().add_rate);

  // JSON artifact, same conventions as BENCH_sim.json / BENCH_churn.json.
  util::json::Array rounds;
  for (const auto& row : report.rounds) {
    util::json::Value entry{util::json::Object{}};
    entry.set("round", std::uint64_t{row.round});
    entry.set("adds", std::uint64_t{row.adds});
    entry.set("removals", std::uint64_t{row.removals});
    entry.set("incremental_bytes", row.incremental_bytes);
    entry.set("full_download_bytes", row.full_download_bytes);
    entry.set("client_prefixes", std::uint64_t{row.client_prefixes});
    entry.set("day0_knowledge_fraction",
              bench::rounded(row.day0_knowledge_fraction, 4));
    rounds.push_back(std::move(entry));
  }
  util::json::Value doc{util::json::Object{}};
  doc.set("experiment", "update_dynamics");
  doc.set("initial_entries", std::uint64_t{config.initial_entries});
  doc.set("adds_per_round", std::uint64_t{config.adds_per_round});
  doc.set("removals_per_round", std::uint64_t{config.removals_per_round});
  doc.set("rounds", std::move(rounds));
  doc.set("total_incremental_bytes", report.total_incremental_bytes);
  doc.set("total_full_download_bytes", report.total_full_download_bytes);
  doc.set("total_bloom_reship_bytes", report.total_bloom_reship_bytes);
  doc.set("fitted_add_rate", bench::rounded(rates.add_rate, 6));
  doc.set("fitted_remove_rate", bench::rounded(rates.remove_rate, 6));
  return bench::write_json(doc, out_path) ? 0 : 1;
}
