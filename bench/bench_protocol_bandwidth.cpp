// Wire bandwidth of the three protocol generations on the SAME blacklist:
// measured encoded-frame bytes, not estimates.
//
//   * updates:  v3 chunked (9-byte chunk headers + raw 4 B/prefix) vs v4
//               sliced (Rice-coded raw-hash slices) -- full sync and
//               incremental (churn) sync;
//   * lookups:  bytes per URL checked under v1 (URL in clear, every URL),
//               v3 and v4 (full-hash exchange, only on local hits).
//
// This is the efficiency half of the paper's Section 2.2 deprecation story
// (v1 -> v3) extended to the post-paper v4, and the acceptance gauge for
// ISSUE 2: v4 updates must come in under v3 on identical content.
//
// Output: human-readable table on stdout; the JSON goes only to
// BENCH_protocol_bandwidth.json (--out PATH overrides, --entries N
// rescales the list).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sb/client.hpp"
#include "sb/lookup_api.hpp"
#include "sb/protocol_v4.hpp"
#include "sb/transport.hpp"
#include "util/rng.hpp"

namespace {

using namespace sbp;

constexpr const char* kList = "goog-malware-shavar";

void seed_server(sb::Server& server, std::size_t entries) {
  for (std::size_t i = 0; i < entries; ++i) {
    server.add_expression(kList, "host" + std::to_string(i) + ".example/");
  }
  server.seal_chunk(kList);
}

void churn_server(sb::Server& server, std::size_t adds, std::size_t removes) {
  for (std::size_t i = 0; i < removes; ++i) {
    server.remove_expression(kList, "host" + std::to_string(i) + ".example/");
  }
  for (std::size_t i = 0; i < adds; ++i) {
    server.add_expression(kList, "churn" + std::to_string(i) + ".example/");
  }
  server.seal_chunk(kList);
}

struct Sample {
  std::uint64_t up = 0;
  std::uint64_t down = 0;
  [[nodiscard]] std::uint64_t total() const { return up + down; }
};

Sample delta(const sb::TransportStats& stats, const Sample& before) {
  return {stats.bytes_up - before.up, stats.bytes_down - before.down};
}

Sample snapshot(const sb::TransportStats& stats) {
  return {stats.bytes_up, stats.bytes_down};
}

/// Update-bandwidth measurement for one prefix-based generation.
struct UpdateCosts {
  Sample full_sync;
  Sample incremental;
  std::size_t prefixes = 0;
};

template <typename ClientT>
UpdateCosts measure_updates(std::size_t entries, std::size_t churn_adds,
                            std::size_t churn_removes,
                            sb::ProtocolVersion version) {
  sb::Server server;
  seed_server(server, entries);
  sb::SimClock clock;
  sb::InProcessTransport transport(server, clock, /*round_trip_ticks=*/0);
  sb::ClientConfig config;
  config.protocol = version;
  ClientT client(transport, config);
  client.subscribe(kList);

  UpdateCosts costs;
  Sample before = snapshot(transport.stats());
  (void)client.update();
  costs.full_sync = delta(transport.stats(), before);
  costs.prefixes = client.local_prefix_count();

  churn_server(server, churn_adds, churn_removes);
  before = snapshot(transport.stats());
  (void)client.update();
  costs.incremental = delta(transport.stats(), before);
  return costs;
}

/// Browsing stream: mostly clean URLs, a few hits (like real traffic).
std::vector<std::string> browsing_stream(std::size_t n) {
  util::Rng rng(2016);
  std::vector<std::string> urls;
  urls.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 20 == 0) {
      urls.push_back("http://host" + std::to_string(rng.next_below(64)) +
                     ".example/");
    } else {
      urls.push_back("http://clean" + std::to_string(i) +
                     ".example/some/long/path?session=" + std::to_string(i));
    }
  }
  return urls;
}

struct LookupCosts {
  Sample wire;
  std::uint64_t requests = 0;
  std::size_t urls = 0;
};

LookupCosts measure_lookups(sb::ProtocolVersion version, std::size_t entries,
                            std::size_t num_urls) {
  sb::Server server;
  seed_server(server, entries);
  sb::SimClock clock;
  sb::InProcessTransport transport(server, clock, /*round_trip_ticks=*/0);
  sb::ClientConfig config;
  config.protocol = version;
  config.cookie = 0xC0FFEE;
  const auto client = sb::make_protocol_client(transport, config);
  client->subscribe(kList);
  (void)client->update();

  const Sample before = snapshot(transport.stats());
  const std::uint64_t requests_before = transport.stats().v1_requests +
                                        transport.stats().full_hash_requests;
  for (const auto& url : browsing_stream(num_urls)) {
    (void)client->lookup(url);
  }
  LookupCosts costs;
  costs.wire = delta(transport.stats(), before);
  costs.requests = transport.stats().v1_requests +
                   transport.stats().full_hash_requests - requests_before;
  costs.urls = num_urls;
  return costs;
}

double per(std::uint64_t bytes, std::size_t count) {
  return count == 0 ? 0.0
                    : static_cast<double>(bytes) / static_cast<double>(count);
}

}  // namespace

int main(int argc, char** argv) {
  sbp::bench::Args args(argc, argv);
  const std::size_t entries = args.size_flag("--entries", 4096);
  const std::size_t num_urls = args.size_flag("--urls", 2000);
  const std::string out_path =
      args.string_flag("--out", "BENCH_protocol_bandwidth.json");
  if (!args.finish()) return 1;
  const std::size_t churn_adds = entries / 16;
  const std::size_t churn_removes = entries / 64;

  sbp::bench::header("protocol_bandwidth",
                     "measured wire bytes: v1 vs v3 vs v4 on one blacklist");
  std::printf("blacklist: %zu entries; churn: +%zu/-%zu; stream: %zu URLs\n\n",
              entries, churn_adds, churn_removes, num_urls);

  const UpdateCosts v3 = measure_updates<sbp::sb::Client>(
      entries, churn_adds, churn_removes, sbp::sb::ProtocolVersion::kV3Chunked);
  const UpdateCosts v4 = measure_updates<sbp::sb::V4SlicedProtocol>(
      entries, churn_adds, churn_removes, sbp::sb::ProtocolVersion::kV4Sliced);

  std::printf("updates (same list contents, %zu prefixes)\n", v3.prefixes);
  std::printf("  %-28s %12s %12s %14s\n", "", "bytes up", "bytes down",
              "bytes/prefix");
  std::printf("  %-28s %12llu %12llu %14.2f\n", "v3 chunked full sync",
              static_cast<unsigned long long>(v3.full_sync.up),
              static_cast<unsigned long long>(v3.full_sync.down),
              per(v3.full_sync.down, v3.prefixes));
  std::printf("  %-28s %12llu %12llu %14.2f\n", "v4 sliced  full sync",
              static_cast<unsigned long long>(v4.full_sync.up),
              static_cast<unsigned long long>(v4.full_sync.down),
              per(v4.full_sync.down, v4.prefixes));
  std::printf("  %-28s %12llu %12llu\n", "v3 chunked incremental",
              static_cast<unsigned long long>(v3.incremental.up),
              static_cast<unsigned long long>(v3.incremental.down));
  std::printf("  %-28s %12llu %12llu\n", "v4 sliced  incremental",
              static_cast<unsigned long long>(v4.incremental.up),
              static_cast<unsigned long long>(v4.incremental.down));
  const double full_ratio =
      per(v3.full_sync.total(), 1) / std::max(1.0, per(v4.full_sync.total(), 1));
  std::printf("  v4/v3 compression: full sync x%.2f, incremental x%.2f\n\n",
              full_ratio,
              static_cast<double>(v3.incremental.total()) /
                  std::max<double>(1.0, static_cast<double>(
                                            v4.incremental.total())));

  const LookupCosts v1_lookups =
      measure_lookups(sbp::sb::ProtocolVersion::kV1Lookup, entries, num_urls);
  const LookupCosts v3_lookups =
      measure_lookups(sbp::sb::ProtocolVersion::kV3Chunked, entries, num_urls);
  const LookupCosts v4_lookups =
      measure_lookups(sbp::sb::ProtocolVersion::kV4Sliced, entries, num_urls);

  std::printf("lookups (%zu-URL stream, ~5%% listed)\n", num_urls);
  std::printf("  %-28s %12s %12s %14s\n", "", "requests", "wire bytes",
              "bytes/URL");
  const auto lookup_row = [&](const char* label, const LookupCosts& costs) {
    std::printf("  %-28s %12llu %12llu %14.2f\n", label,
                static_cast<unsigned long long>(costs.requests),
                static_cast<unsigned long long>(costs.wire.total()),
                per(costs.wire.total(), costs.urls));
  };
  lookup_row("v1 lookup (URL in clear)", v1_lookups);
  lookup_row("v3 full-hash", v3_lookups);
  lookup_row("v4 full-hash", v4_lookups);

  const bool v4_smaller = v4.full_sync.total() < v3.full_sync.total() &&
                          v4.incremental.total() < v3.incremental.total();
  sbp::util::json::Value doc{sbp::util::json::Object{}};
  doc.set("experiment", "protocol_bandwidth");
  doc.set("entries", std::uint64_t{entries});
  doc.set("urls", std::uint64_t{num_urls});
  doc.set("v3_full_sync_bytes", v3.full_sync.total());
  doc.set("v4_full_sync_bytes", v4.full_sync.total());
  doc.set("v3_incremental_bytes", v3.incremental.total());
  doc.set("v4_incremental_bytes", v4.incremental.total());
  doc.set("v3_update_bytes_per_prefix",
          sbp::bench::rounded(per(v3.full_sync.down, v3.prefixes), 3));
  doc.set("v4_update_bytes_per_prefix",
          sbp::bench::rounded(per(v4.full_sync.down, v4.prefixes), 3));
  doc.set("v1_lookup_bytes_per_url",
          sbp::bench::rounded(per(v1_lookups.wire.total(), num_urls), 3));
  doc.set("v3_lookup_bytes_per_url",
          sbp::bench::rounded(per(v3_lookups.wire.total(), num_urls), 3));
  doc.set("v4_lookup_bytes_per_url",
          sbp::bench::rounded(per(v4_lookups.wire.total(), num_urls), 3));
  doc.set("v4_smaller_than_v3", v4_smaller);
  if (!sbp::bench::write_json(doc, out_path)) return 1;
  // The acceptance property doubles as the bench's exit status so CI
  // catches a regression without parsing JSON.
  if (!v4_smaller) {
    std::fprintf(stderr, "FAIL: v4 updates not smaller than v3\n");
    return 1;
  }
  return 0;
}
