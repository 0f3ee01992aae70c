// The Section 8 mitigations in action, measured on the simulation engine:
// the same tracked population runs twice -- stock clients vs Firefox-style
// dummy requests (SimConfig.mitigation) -- and the provider's shadow
// detector is applied to both query logs, showing that dummies widen
// single-prefix k-anonymity but do NOT stop the multi-prefix attack. The
// paper's own proposal, one-prefix-at-a-time querying, is then shown
// breaking the attack at the client level.
//
// Build & run:  ./build/examples/mitigation_demo
#include <cstdio>
#include <utility>

#include "crypto/digest.hpp"
#include "mitigation/one_prefix.hpp"
#include "sim/engine.hpp"
#include "sim/log_sink.hpp"
#include "tracking/shadow_db.hpp"

namespace {

/// A tracked population: the interest group visits the target page whose
/// site carries an Algorithm 1 shadow plan (2-prefix shape).
sbp::sim::SimConfig tracked_config(const sbp::tracking::TrackingPlan& plan,
                                   bool dummy_requests) {
  sbp::sim::SimConfig config;
  config.num_users = 300;
  config.ticks = 80;
  config.seed = 88;
  config.corpus.num_hosts = 1200;
  config.corpus.seed = 88;
  config.corpus.max_pages = 150;
  config.blacklist.page_fraction = 0.004;
  config.traffic.target_urls = {"http://tracked.example/dir/page.html"};
  config.traffic.interested_fraction = 0.2;
  config.traffic.target_visit_probability = 0.25;
  config.mitigation.dummy_requests = dummy_requests;
  config.mitigation.dummies_per_prefix = 4;
  config.server_setup = [&plan](sbp::sb::Server& server) {
    sbp::tracking::ShadowDatabase shadow;
    shadow.deploy(plan, server, "goog-malware-shavar");
  };
  return config;
}

struct MitigationOutcome {
  std::size_t detections = 0;
  std::size_t queries = 0;
  double avg_prefixes_per_query = 0.0;
};

MitigationOutcome run_population(const sbp::tracking::TrackingPlan& plan,
                                 bool dummy_requests) {
  sbp::sim::Engine engine(tracked_config(plan, dummy_requests));
  sbp::sim::InMemorySink log;
  engine.attach_sink(&log, /*retain_in_memory=*/false);
  engine.run();

  sbp::tracking::ShadowDatabase shadow;
  shadow.add_plan(plan);
  MitigationOutcome outcome;
  outcome.detections = shadow.detect(log.entries()).size();
  outcome.queries = log.entries().size();
  std::uint64_t prefixes = 0;
  for (const auto& entry : log.entries()) prefixes += entry.prefixes.size();
  outcome.avg_prefixes_per_query =
      outcome.queries == 0
          ? 0.0
          : static_cast<double>(prefixes) /
                static_cast<double>(outcome.queries);
  return outcome;
}

}  // namespace

int main() {
  using namespace sbp;

  // The provider's crawl of the tracked site + Algorithm 1 (2-prefix plan).
  const corpus::DomainHierarchy site({
      "http://tracked.example/dir/page.html",
      "http://tracked.example/dir/other.html",
  });
  const auto plan = tracking::plan_tracking(
      "http://tracked.example/dir/page.html", site, /*delta=*/2);
  std::printf("Algorithm 1 plans %zu shadow prefixes for %s\n\n",
              plan.track_prefixes.size(), plan.target_url.c_str());

  // --- Baseline vs dummy requests, same seed, full protocol stack ---------
  const MitigationOutcome stock = run_population(plan, false);
  const MitigationOutcome padded = run_population(plan, true);

  std::printf("[stock clients]  %zu full-hash queries, %.1f prefixes/query, "
              "tracker detections: %zu\n",
              stock.queries, stock.avg_prefixes_per_query, stock.detections);
  std::printf("[dummy queries]  %zu full-hash queries, %.1f prefixes/query "
              "(k-anonymity x%.0f for single-prefix hits), tracker "
              "detections: %zu (attack %s)\n",
              padded.queries, padded.avg_prefixes_per_query,
              padded.avg_prefixes_per_query /
                  (stock.avg_prefixes_per_query > 0.0
                       ? stock.avg_prefixes_per_query
                       : 1.0),
              padded.detections,
              padded.detections == 0 ? "broken" : "SURVIVES");

  // --- Mitigation 2: one-prefix-at-a-time ---------------------------------
  // The paper's proposal is a client-side change; demonstrate it on one
  // deliberately tracked lookup against a minimal server.
  sb::Server server(sb::Provider::kGoogle);
  sb::SimClock clock;
  sb::InProcessTransport transport(server, clock);
  server.add_expression("list", "tracked.example/dir/page.html");
  server.add_orphan_prefix("list", crypto::prefix32_of("tracked.example/"));
  server.seal_chunk("list");

  tracking::ShadowDatabase shadow;
  shadow.add_plan(plan);

  // Stock client via the provider-agnostic protocol API (v3 generation).
  sb::ClientConfig stock_config;
  stock_config.protocol = sb::ProtocolVersion::kV3Chunked;
  stock_config.cookie = 0xA11CE;
  const auto stock_client = sb::make_protocol_client(transport, stock_config);
  stock_client->subscribe("list");
  (void)stock_client->update();
  const auto stock_result =
      stock_client->lookup("http://tracked.example/dir/page.html");
  std::printf("\n[stock lookup]   sent %zu prefixes; tracker detections: "
              "%zu\n",
              stock_result.sent_prefixes.size(),
              shadow.detect(server.query_log()).size());

  server.clear_query_log();
  sb::ClientConfig mitigated_config;
  mitigated_config.cookie = 0xCAFE;
  mitigation::OnePrefixClient mitigated(transport, mitigated_config);
  mitigated.subscribe("list");
  (void)mitigated.update();
  // The pre-fetch crawl of the site finds no Type I cover for the target:
  // escalation is suppressed and only the root prefix leaves the machine.
  const auto result = mitigated.lookup(
      "http://tracked.example/dir/page.html",
      {"http://tracked.example/dir/page.html"});
  std::printf("[one-prefix]     sent %zu prefix(es); escalation suppressed: "
              "%s; tracker detections: %zu\n",
              result.sent_prefixes.size(),
              result.escalation_suppressed ? "yes" : "no",
              shadow.detect(server.query_log()).size());

  std::printf("\nsummary (paper Section 8): dummies help the single-prefix "
              "case only; one-prefix-at-a-time actually starves the "
              "multi-prefix re-identification -- at the cost of an extra "
              "crawl and delayed warnings.\n");
  return 0;
}
