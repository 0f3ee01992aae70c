// The layer pass: public url/crypto/storage/wire/client entry points timed
// on inputs shaped like the workload's -- URLs from its corpus, its list
// as the store contents -- plus the paper's Table 2 store comparison at
// 630,428 prefixes. Each number is the median of kSamples timed batches
// after one warm-up batch.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "crypto/sha256.hpp"
#include "sb/lookup_request.hpp"
#include "sb/protocol.hpp"
#include "sb/wire/rice.hpp"
#include "storage/bloom_filter.hpp"
#include "storage/delta_table.hpp"
#include "storage/raw_hash_store.hpp"
#include "suite.hpp"
#include "url/canonicalize.hpp"
#include "url/decompose.hpp"
#include "util/rng.hpp"

namespace sbp::benchsuite {

namespace {

constexpr int kSamples = 5;
constexpr std::size_t kUrls = 4096;
/// Table 2 of the paper: the Google malware + phishing prefix count.
constexpr std::size_t kTable2Prefixes = 630428;

/// Results are folded in here so the timed calls cannot be optimized out.
volatile std::uint64_t g_escape = 0;

/// Median nanoseconds per operation of `batch`, which performs `ops`
/// operations per call.
template <typename Batch>
double ns_per_op(double ops, Batch&& batch) {
  batch();
  std::vector<double> samples;
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t start = obs::now_ns();
    batch();
    samples.push_back(static_cast<double>(obs::now_ns() - start) / ops);
  }
  return median(samples);
}

/// Repetitions that make one batch over `n` items take roughly 2^16 item
/// operations, so small lists are timed over more than a few microseconds.
std::size_t reps_for(std::size_t n) {
  return std::max<std::size_t>(1, (std::size_t{1} << 16) / std::max<std::size_t>(1, n));
}

storage::PrefixBatch make_batch(const std::vector<crypto::Prefix32>& sorted) {
  storage::PrefixBatch batch(4);
  batch.assign_sorted32(sorted);
  return batch;
}

/// Probe cost per prefix: every URL's unique prefixes as one batch, the
/// call shape of the engine's prefilter.
template <typename Store>
double probe_ns(const Store& store,
                const std::vector<std::vector<crypto::Prefix32>>& batches,
                double prefixes) {
  bool flags[64];
  return ns_per_op(prefixes, [&] {
    std::uint64_t hits = 0;
    for (const auto& batch : batches) {
      const std::size_t n = std::min<std::size_t>(batch.size(), 64);
      store.contains_many32(std::span(batch.data(), n), std::span(flags, n));
      for (std::size_t i = 0; i < n; ++i) hits += flags[i] ? 1 : 0;
    }
    g_escape = g_escape + hits;
  });
}

/// Self time of one full initial sync (request build, decode, apply, store
/// rebuild): update() wall time minus its RPC span.
double sync_apply_us(sb::Server& server, const sim::SimConfig& config,
                     sb::ProtocolVersion protocol) {
  constexpr int kClients = 16;
  sb::SimClock clock;
  std::vector<RpcSpan> spans;
  BenchTransport transport(server, clock, nullptr, &spans, nullptr);
  std::vector<double> self_us;
  for (int i = 0; i < kClients; ++i) {
    sb::ClientConfig client_config;
    client_config.protocol = protocol;
    client_config.store_kind = config.store_kind;
    client_config.bloom_bits = config.bloom_bits;
    client_config.cookie = static_cast<sb::Cookie>(i + 1);
    auto client = sb::make_protocol_client(transport, client_config);
    for (const auto& list : config.blacklist.lists) client->subscribe(list);
    spans.clear();
    const std::uint64_t start = obs::now_ns();
    (void)client->update();
    double ns = static_cast<double>(obs::now_ns() - start);
    for (const RpcSpan& span : spans) ns -= static_cast<double>(span.dur_ns);
    self_us.push_back(ns / 1e3);
  }
  return median(self_us);
}

}  // namespace

void layer_pass(const sim::SimConfig& config, Result& result) {
  const auto started = Clock::now();
  sim::SimConfig zero = config;
  zero.num_users = 0;
  sim::Engine engine(std::move(zero));
  const corpus::WebCorpus& corpus = engine.traffic_model().corpus();

  // Inputs shaped like the workload's: random pages of its corpus, and the
  // prefixes its server ships.
  util::Rng rng(config.seed ^ 0x1A7E25ULL);
  std::vector<std::string> urls;
  while (urls.size() < kUrls && corpus.num_hosts() > 0) {
    const corpus::Site site = corpus.site(rng.next_below(corpus.num_hosts()));
    if (site.pages.empty()) continue;
    urls.push_back(site.pages[rng.next_below(site.pages.size())].url());
  }
  std::set<crypto::Prefix32> listed;
  for (const auto& list : engine.server().list_names()) {
    for (const auto prefix : engine.server().prefixes(list)) {
      listed.insert(prefix);
    }
  }
  const std::vector<crypto::Prefix32> list(listed.begin(), listed.end());
  const storage::PrefixBatch list_batch = make_batch(list);
  const auto n_urls = static_cast<double>(urls.size());

  std::vector<url::CanonicalUrl> canonical;
  std::vector<std::vector<crypto::Prefix32>> batches;
  std::vector<std::string> expressions;
  sb::LookupRequest request;
  for (const std::string& raw : urls) {
    if (auto c = url::canonicalize(raw)) canonical.push_back(std::move(*c));
    request.build(raw);
    batches.emplace_back(request.unique_prefixes().begin(),
                         request.unique_prefixes().end());
    for (const auto& e : request.expressions()) expressions.push_back(e);
  }
  double prefixes = 0.0;
  for (const auto& batch : batches) {
    prefixes += static_cast<double>(std::min<std::size_t>(batch.size(), 64));
  }

  result.metric("url.canonicalize_ns", ns_per_op(n_urls, [&] {
    std::uint64_t ok = 0;
    for (const std::string& raw : urls) ok += url::canonicalize(raw) ? 1 : 0;
    g_escape = g_escape + ok;
  }), "ns");
  result.metric("url.decompose_ns",
                ns_per_op(static_cast<double>(canonical.size()), [&] {
    std::uint64_t total = 0;
    for (const auto& c : canonical) total += url::decompose(c).size();
    g_escape = g_escape + total;
  }), "ns");
  result.metric("url.build_ns", ns_per_op(n_urls, [&] {
    std::uint64_t total = 0;
    for (const std::string& raw : urls) {
      request.build(raw);
      total += request.size();
    }
    g_escape = g_escape + total;
  }), "ns");
  result.metric("crypto.sha256_ns",
                ns_per_op(static_cast<double>(expressions.size()), [&] {
    std::uint64_t total = 0;
    for (const std::string& e : expressions) total += crypto::Sha256::hash(e)[0];
    g_escape = g_escape + total;
  }), "ns");

  const storage::DeltaCodedTable delta(list_batch);
  const storage::RawSortedStore raw(list_batch);
  const std::size_t bloom_bits =
      config.bloom_bits > 0 ? config.bloom_bits : 32 * std::max<std::size_t>(1, list.size());
  const storage::BloomFilter bloom(list_batch, bloom_bits);
  storage::RawHashStore v4raw;
  if (!v4raw.reset(list)) result.fail("layer pass: v4 store rejected the list");

  result.metric("url.pipeline_ns", ns_per_op(n_urls, [&] {
    bool flags[64];
    std::uint64_t hits = 0;
    for (const std::string& raw_url : urls) {
      request.build(raw_url);
      const auto unique = request.unique_prefixes();
      const std::size_t n = std::min<std::size_t>(unique.size(), 64);
      delta.contains_many32(unique.first(n), std::span(flags, n));
      for (std::size_t i = 0; i < n; ++i) hits += flags[i] ? 1 : 0;
    }
    g_escape = g_escape + hits;
  }), "ns");
  result.metric("storage.probe_ns.delta", probe_ns(delta, batches, prefixes), "ns");
  result.metric("storage.probe_ns.raw", probe_ns(raw, batches, prefixes), "ns");
  result.metric("storage.probe_ns.bloom", probe_ns(bloom, batches, prefixes), "ns");
  result.metric("storage.probe_ns.v4raw", probe_ns(v4raw, batches, prefixes), "ns");

  {
    util::Rng table_rng(0x7AB1E2ULL);
    std::vector<crypto::Prefix32> random;
    while (random.size() < kTable2Prefixes) {
      while (random.size() < kTable2Prefixes) {
        random.push_back(static_cast<crypto::Prefix32>(table_rng.next()));
      }
      std::sort(random.begin(), random.end());
      random.erase(std::unique(random.begin(), random.end()), random.end());
    }
    const storage::PrefixBatch table(make_batch(random));
    const storage::DeltaCodedTable table_delta(table);
    const storage::RawSortedStore table_raw(table);
    const storage::BloomFilter table_bloom(
        table, storage::BloomFilter::kChromiumDefaultBits);
    result.metric("storage.probe_ns.delta.table2",
                  probe_ns(table_delta, batches, prefixes), "ns");
    result.metric("storage.probe_ns.raw.table2",
                  probe_ns(table_raw, batches, prefixes), "ns");
    result.metric("storage.probe_ns.bloom.table2",
                  probe_ns(table_bloom, batches, prefixes), "ns");
  }

  const std::size_t reps = reps_for(list.size());
  const double built = static_cast<double>(reps * list.size());
  result.metric("storage.build_ns.delta", ns_per_op(built, [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      const storage::DeltaCodedTable store(list_batch);
      g_escape = g_escape + store.size();
    }
  }), "ns");
  result.metric("storage.build_ns.bloom", ns_per_op(built, [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      const storage::BloomFilter store(list_batch, bloom_bits);
      g_escape = g_escape + store.size();
    }
  }), "ns");
  result.metric("storage.build_ns.v4raw", ns_per_op(built, [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      storage::RawHashStore store;
      g_escape = g_escape + (store.reset(list) ? store.size() : 0);
    }
  }), "ns");

  sb::wire::Writer encoded;
  sb::wire::rice_encode_sorted(list, encoded);
  result.metric("wire.rice_encode_ns", ns_per_op(built, [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      sb::wire::Writer out;
      sb::wire::rice_encode_sorted(list, out);
      g_escape = g_escape + out.size();
    }
  }), "ns");
  result.metric("wire.rice_decode_ns", ns_per_op(built, [&] {
    for (std::size_t r = 0; r < reps; ++r) {
      sb::wire::Reader in(encoded.data());
      const auto values = sb::wire::rice_decode_sorted(in, list.size());
      g_escape = g_escape + (values ? values->size() : 0);
    }
  }), "ns");

  result.metric("client.sync_apply_us",
                (sync_apply_us(engine.server(), config,
                               sb::ProtocolVersion::kV3Chunked) +
                 sync_apply_us(engine.server(), config,
                               sb::ProtocolVersion::kV4Sliced)) /
                    2.0,
                "us");
  std::fprintf(stderr, "layer pass: %zu urls, %zu listed prefixes, %.2f s\n",
               urls.size(), list.size(), seconds_since(started));
}

}  // namespace sbp::benchsuite
