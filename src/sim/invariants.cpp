#include "sim/invariants.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "crypto/digest.hpp"
#include "mitigation/dummy_requests.hpp"
#include "sb/protocol_v4.hpp"
#include "sb/transport.hpp"
#include "sb/wire/frames.hpp"
#include "sim/log_sink.hpp"
#include "sim/scenario/generator.hpp"
#include "sim/scenario/runner.hpp"
#include "sim/user.hpp"
#include "url/decompose.hpp"
#include "storage/bloom_filter.hpp"
#include "storage/raw_hash_store.hpp"
#include "storage/snapshot.hpp"
#include "util/json/json.hpp"
#include "util/rng.hpp"

namespace sbp::sim {

namespace {

constexpr const char* kThreadDeterminism = "thread-determinism";
constexpr const char* kMetricsTransparency = "metrics-transparency";
constexpr const char* kProtocolEquivalence = "protocol-equivalence";
constexpr const char* kCounterConservation = "counter-conservation";
constexpr const char* kCanonicalRoundtrip = "canonical-roundtrip";
constexpr const char* kCheckpointRestore = "checkpoint-restore";
constexpr const char* kBatchScalarEquivalence = "batch-scalar-equivalence";
constexpr const char* kReferenceEquivalence = "reference-equivalence";

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (const auto& part : parts) {
    if (!out.empty()) out += sep;
    out += part;
  }
  return out;
}

std::string num(std::uint64_t value) { return std::to_string(value); }

/// One failure-collector per invariant keeps the doctor hook uniform: the
/// honest checks run first, then a doctored invariant gets one synthetic
/// failure appended (so self-tests exercise the exact same reporting
/// path real failures take).
class Collector {
 public:
  Collector(InvariantReport& report, const InvariantOptions& options)
      : report_(report), options_(options) {}

  void begin(const std::string& invariant) {
    finish_doctor();
    current_ = invariant;
    report_.checked.push_back(invariant);
  }

  void fail(const std::string& detail) {
    report_.failures.push_back({current_, detail});
  }

  void law(bool holds, const std::string& detail) {
    if (!holds) fail(detail);
  }

  /// Appends the pending doctored failure of the LAST begun invariant.
  void finish_doctor() {
    if (!current_.empty() && options_.doctor == current_) {
      fail("doctored failure (self-test hook; the engine itself is healthy)");
    }
    current_.clear();
  }

 private:
  InvariantReport& report_;
  const InvariantOptions& options_;
  std::string current_;
};

/// The scenario as the invariant legs run it: analysis sections off (they
/// are post-hoc and slow), profiling off (the metrics leg flips it on),
/// golden dropped (invariants are the point: no answer key).
Scenario base_scenario(const Scenario& scenario) {
  Scenario base = scenario;
  base.report.kanonymity = false;
  base.report.reidentification = false;
  base.config.collect_metrics = false;
  base.config.metrics_per_tick_series = false;
  base.golden.reset();
  // The checkpoint-restore leg exercises snapshots in memory; an on-disk
  // snapshot block would make every fuzz iteration write files.
  base.snapshot.reset();
  return base;
}

void check_canonical_roundtrip(const Scenario& scenario, Collector& collect) {
  collect.begin(kCanonicalRoundtrip);
  const std::string text1 = util::json::dump(scenario_to_json(scenario));
  const util::json::ParseResult parsed = util::json::parse(text1);
  if (!parsed.ok()) {
    collect.fail("canonical dump does not re-parse: " +
                 parsed.error.describe(text1));
    return;
  }
  std::string error;
  const std::optional<Scenario> reparsed =
      parse_scenario(*parsed.value, &error);
  if (!reparsed) {
    collect.fail("canonical dump rejected by parse_scenario: " + error);
    return;
  }
  const std::string text2 = util::json::dump(scenario_to_json(*reparsed));
  if (text2 != text1) {
    const auto mismatch =
        std::mismatch(text1.begin(), text1.end(), text2.begin(), text2.end());
    collect.fail(
        "parse -> serialize -> parse is not a fixpoint (first divergence at "
        "byte " +
        num(static_cast<std::uint64_t>(mismatch.first - text1.begin())) + ")");
  }
}

void check_thread_determinism(const Scenario& base,
                              const ScenarioRunResult& baseline,
                              std::size_t baseline_threads,
                              const InvariantOptions& options,
                              Collector& collect) {
  collect.begin(kThreadDeterminism);
  for (std::size_t i = 1; i < options.thread_counts.size(); ++i) {
    const std::size_t threads = options.thread_counts[i];
    const std::vector<std::string> diffs =
        run_diff(run_scenario(base, threads), baseline);
    if (!diffs.empty()) {
      collect.fail("threads=" + num(threads) + " vs threads=" +
                   num(baseline_threads) + ": " + join(diffs, "; "));
    }
  }
}

void check_metrics_transparency(const Scenario& base,
                                const ScenarioRunResult& baseline,
                                std::size_t baseline_threads,
                                Collector& collect) {
  collect.begin(kMetricsTransparency);
  Scenario with_metrics = base;
  with_metrics.config.collect_metrics = true;
  with_metrics.config.metrics_per_tick_series = true;
  const ScenarioRunResult leg = run_scenario(with_metrics, baseline_threads);
  const std::vector<std::string> diffs = run_diff(leg, baseline);
  if (!diffs.empty()) {
    collect.fail("collect_metrics=true vs false: " + join(diffs, "; "));
  }
  if (!leg.obs || !leg.obs->enabled) {
    collect.fail("collect_metrics=true produced no obs snapshot");
  }
}

void check_protocol_equivalence(const Scenario& base, Collector& collect) {
  collect.begin(kProtocolEquivalence);
  // Twins: identical population/corpus/blacklist/churn, whole fleet forced
  // to one generation. Run sequentially -- thread-determinism already
  // covers the parallel runtime.
  //
  // Bloom scenarios are normalized to an exact store first: the v4 Update
  // API's slice/checksum discipline forces its client onto an exact
  // RawHashStore no matter what store_kind says, while a v3 Bloom client
  // emits extra false-positive full-hash queries -- a real asymmetry of
  // the deployed systems (found by this very fuzzer), not an engine bug.
  // The paper's equivalence claim is about exact-database semantics.
  Scenario v3 = base;
  v3.config.protocol = sb::ProtocolVersion::kV3Chunked;
  v3.config.mix_fraction = 0.0;
  if (v3.config.store_kind == storage::StoreKind::kBloom) {
    v3.config.store_kind = storage::StoreKind::kDeltaCoded;
    v3.config.bloom_bits = 0;
  }
  Scenario v4 = base;
  v4.config.protocol = sb::ProtocolVersion::kV4Sliced;
  v4.config.mix_fraction = 0.0;
  v4.config.store_kind = v3.config.store_kind;
  v4.config.bloom_bits = v3.config.bloom_bits;
  const ScenarioRunResult a = run_scenario(v3, 1);
  const ScenarioRunResult b = run_scenario(v4, 1);

  // Everything the provider observes and every verdict must match; wire
  // bytes and update-request counts are the generations' transports and
  // legitimately differ (v4 slices are cheaper -- that's PR 2's bench).
  const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>>
      fields[] = {
          {"log_fingerprint", {a.log_fingerprint, b.log_fingerprint}},
          {"log_entries", {a.log_entries, b.log_entries}},
          {"log_prefixes", {a.log_prefixes, b.log_prefixes}},
          {"log_multi_prefix_entries",
           {a.log_multi_prefix_entries, b.log_multi_prefix_entries}},
          {"lookups", {a.metrics.lookups, b.metrics.lookups}},
          {"malicious_verdicts",
           {a.metrics.malicious_verdicts, b.metrics.malicious_verdicts}},
          {"population.malicious_verdicts",
           {a.population.malicious_verdicts, b.population.malicious_verdicts}},
          {"population.full_hash_requests",
           {a.population.full_hash_requests, b.population.full_hash_requests}},
          {"population.cache_answers",
           {a.population.cache_answers, b.population.cache_answers}},
          {"population.local_hits",
           {a.population.local_hits, b.population.local_hits}},
      };
  std::vector<std::string> diffs;
  for (const auto& [name, values] : fields) {
    if (values.first != values.second) {
      diffs.push_back(std::string(name) + " v3=" + num(values.first) +
                      " v4=" + num(values.second));
    }
  }
  if (!diffs.empty()) collect.fail("v3 twin != v4 twin: " + join(diffs, "; "));
}

/// The persistence contract (docs/persistence.md) as a golden-free
/// oracle: after running the scenario, checkpoint the server to a memory
/// backend, restore into a fresh server, and require (1) re-checkpointing
/// the restored server reproduces the exact snapshot bytes, and (2) the
/// restored server is byte-indistinguishable to every client generation
/// -- same list names, chunk sequences, prefix sets and digests, and
/// byte-identical encoded v3/v4 update responses for a fresh client.
void check_checkpoint_restore(const Scenario& base, Collector& collect) {
  collect.begin(kCheckpointRestore);
  SimConfig config = base.config;
  config.num_threads = 1;
  Engine engine(std::move(config));
  engine.run();
  sb::Server& original = engine.server();

  storage::MemoryBackend backend;
  std::string error;
  if (!original.checkpoint(backend, &error)) {
    collect.fail("checkpoint failed: " + error);
    return;
  }
  sb::Server restored;
  if (!restored.restore(backend, &error)) {
    collect.fail("restore failed: " + error);
    return;
  }
  collect.law(restored.checkpoint_bytes() == backend.bytes(),
              "checkpoint -> restore -> checkpoint is not a byte fixpoint");

  const std::vector<std::string> names = original.list_names();
  if (restored.list_names() != names) {
    collect.fail("restored list names differ");
    return;
  }
  for (const std::string& name : names) {
    collect.law(restored.chunk_sequence(name) == original.chunk_sequence(name),
                name + ": chunk_sequence " +
                    num(restored.chunk_sequence(name)) + " != " +
                    num(original.chunk_sequence(name)));
    const auto prefixes = original.prefixes(name);
    collect.law(restored.prefixes(name) == prefixes,
                name + ": restored prefix set differs");
    const std::size_t sample = std::min<std::size_t>(8, prefixes.size());
    for (std::size_t i = 0; i < sample; ++i) {
      collect.law(restored.digests_for(name, prefixes[i]) ==
                      original.digests_for(name, prefixes[i]),
                  name + ": digests differ for a sampled prefix");
    }
  }

  // Fresh clients of both generations must receive byte-identical update
  // frames (this also seals any open chunk -- symmetrically, since the
  // open chunk is serialized verbatim).
  sb::UpdateRequest v3_request;
  sb::V4UpdateRequest v4_request;
  for (const std::string& name : names) {
    v3_request.lists.push_back({name, {}, {}});
    v4_request.lists.push_back({name, 0});
  }
  const auto v3_frame = sb::wire::encode_update_request(v3_request);
  const auto v4_frame = sb::wire::encode_v4_update_request(v4_request);
  const auto v3_original = original.serve_frame(v3_frame, /*tick=*/0);
  const auto v3_restored = restored.serve_frame(v3_frame, /*tick=*/0);
  collect.law(v3_original != nullptr && v3_restored != nullptr &&
                  *v3_original == *v3_restored,
              "v3 update response bytes differ after restore");
  const auto v4_original = original.serve_frame(v4_frame, /*tick=*/0);
  const auto v4_restored = restored.serve_frame(v4_frame, /*tick=*/0);
  collect.law(v4_original != nullptr && v4_restored != nullptr &&
                  *v4_original == *v4_restored,
              "v4 update response bytes differ after restore");
}

void check_counter_conservation(const Scenario& base,
                                const ScenarioRunResult& r,
                                Collector& collect) {
  collect.begin(kCounterConservation);
  const SimConfig& config = base.config;
  const SimMetrics& m = r.metrics;
  const sb::ClientMetrics& p = r.population;
  const sb::TransportStats& w = r.wire;

  collect.law(m.ticks_run == config.ticks,
              "ticks_run " + num(m.ticks_run) + " != config.ticks " +
                  num(config.ticks));
  collect.law(m.local_hit_lookups <= m.lookups,
              "local_hit_lookups " + num(m.local_hit_lookups) +
                  " > lookups " + num(m.lookups));
  collect.law(
      m.dispatched_lookups + m.mitigated_lookups == m.local_hit_lookups,
      "dispatched " + num(m.dispatched_lookups) + " + mitigated " +
          num(m.mitigated_lookups) + " != local_hit_lookups " +
          num(m.local_hit_lookups));
  collect.law(m.url_cache_hits + m.url_cache_misses == m.lookups,
              "url_cache hits " + num(m.url_cache_hits) + " + misses " +
                  num(m.url_cache_misses) + " != lookups " + num(m.lookups));
  // The site table is consulted only to build the URL of a URL-cache miss
  // (and not at all for interest-target URLs).
  collect.law(m.site_cache_hits + m.site_cache_misses <= m.url_cache_misses,
              "site_cache hits " + num(m.site_cache_hits) + " + misses " +
                  num(m.site_cache_misses) + " > url_cache misses " +
                  num(m.url_cache_misses));

  if (config.mitigation.dummy_requests) {
    collect.law(m.dispatched_lookups == 0,
                "mitigation on but dispatched_lookups " +
                    num(m.dispatched_lookups) + " != 0");
    collect.law(p.full_hash_requests == 0,
                "mitigation on but population.full_hash_requests " +
                    num(p.full_hash_requests) + " != 0 (padded path "
                    "bypasses the client)");
    collect.law(w.full_hash_requests == m.mitigated_lookups,
                "wire.full_hash_requests " + num(w.full_hash_requests) +
                    " != mitigated_lookups " + num(m.mitigated_lookups));
  } else {
    collect.law(m.mitigated_lookups == 0,
                "mitigation off but mitigated_lookups " +
                    num(m.mitigated_lookups) + " != 0");
    collect.law(m.malicious_verdicts == p.malicious_verdicts,
                "engine malicious_verdicts " + num(m.malicious_verdicts) +
                    " != population " + num(p.malicious_verdicts));
    collect.law(w.full_hash_requests == p.full_hash_requests,
                "wire.full_hash_requests " + num(w.full_hash_requests) +
                    " != population.full_hash_requests " +
                    num(p.full_hash_requests));
  }

  // In-process transport, no injected faults: nothing may fail and the
  // backoff machinery must stay idle (resyncs are update_wait-gated).
  collect.law(w.failed_requests == 0,
              "wire.failed_requests " + num(w.failed_requests) + " != 0");
  collect.law(p.network_errors == 0,
              "population.network_errors " + num(p.network_errors) + " != 0");
  collect.law(p.updates_failed == 0,
              "population.updates_failed " + num(p.updates_failed) + " != 0");
  collect.law(p.backoff_suppressed == 0,
              "population.backoff_suppressed " + num(p.backoff_suppressed) +
                  " != 0");
  // Shared sync states: a list state is built only when some client's
  // successful update() needs it, and one update() needs at most one state
  // per subscribed list -- clients in a shared state never rebuild it.
  const std::uint64_t successful_updates =
      p.updates_attempted -
      std::min(p.updates_attempted, p.backoff_suppressed + p.updates_failed);
  const std::uint64_t lists = config.blacklist.lists.size();
  collect.law(m.client_state_builds <= successful_updates * lists,
              "client_state_builds " + num(m.client_state_builds) +
                  " > successful updates " + num(successful_updates) +
                  " x lists " + num(lists));

  // The server log is exactly the wire's query-bearing requests.
  collect.law(r.log_entries == w.full_hash_requests + w.v1_requests,
              "log_entries " + num(r.log_entries) +
                  " != full_hash_requests " + num(w.full_hash_requests) +
                  " + v1_requests " + num(w.v1_requests));
  collect.law(r.log_prefixes >= r.log_entries,
              "log_prefixes " + num(r.log_prefixes) + " < log_entries " +
                  num(r.log_entries));
  collect.law(r.log_multi_prefix_entries <= r.log_entries,
              "multi_prefix_entries " + num(r.log_multi_prefix_entries) +
                  " > log_entries " + num(r.log_entries));
  collect.law(w.update_bytes_up <= w.bytes_up,
              "update_bytes_up " + num(w.update_bytes_up) + " > bytes_up " +
                  num(w.bytes_up));
  collect.law(w.update_bytes_down <= w.bytes_down,
              "update_bytes_down " + num(w.update_bytes_down) +
                  " > bytes_down " + num(w.bytes_down));

  // Churn accounting: epochs fire at ticks k*epoch_ticks for k >= 1, so a
  // run of T ticks applies exactly floor((T-1)/epoch_ticks) epochs, and an
  // injection lands iff its (1-based) epoch actually ran.
  if (config.churn.epoch_ticks == 0) {
    collect.law(m.churn_events == 0 && m.churn_adds == 0 &&
                    m.churn_removes == 0 && m.injected_prefixes == 0 &&
                    m.churn_updates == 0,
                "churn off but churn counters advanced (events " +
                    num(m.churn_events) + ", adds " + num(m.churn_adds) +
                    ", removes " + num(m.churn_removes) + ", injected " +
                    num(m.injected_prefixes) + ", updates " +
                    num(m.churn_updates) + ")");
  } else {
    const std::uint64_t expected_epochs =
        (config.ticks - 1) / config.churn.epoch_ticks;
    collect.law(m.churn_events == expected_epochs,
                "churn_events " + num(m.churn_events) + " != (ticks-1)/" +
                    "epoch_ticks = " + num(expected_epochs));
    std::uint64_t expected_injected = 0;
    for (const auto& injection : config.churn.injections) {
      if (injection.epoch >= 1 && injection.epoch <= m.churn_events) {
        ++expected_injected;
      }
    }
    collect.law(m.injected_prefixes == expected_injected,
                "injected_prefixes " + num(m.injected_prefixes) + " != " +
                    num(expected_injected) + " in-range injections");
  }

  // Generations absent from the fleet must leave no wire trace of their
  // own channel (the positive direction is load-dependent; the negative
  // direction is exact).
  const bool mixed = config.mix_fraction > 0.0;
  auto in_fleet = [&](sb::ProtocolVersion version) {
    return config.protocol == version ||
           (mixed && config.mix_protocol == version);
  };
  if (!in_fleet(sb::ProtocolVersion::kV1Lookup)) {
    collect.law(w.v1_requests == 0, "no v1 clients but wire.v1_requests " +
                                        num(w.v1_requests) + " != 0");
  }
  if (!in_fleet(sb::ProtocolVersion::kV3Chunked)) {
    collect.law(w.update_requests == 0,
                "no v3 clients but wire.update_requests " +
                    num(w.update_requests) + " != 0");
  }
  if (!in_fleet(sb::ProtocolVersion::kV4Sliced)) {
    collect.law(w.v4_update_requests == 0,
                "no v4 clients but wire.v4_update_requests " +
                    num(w.v4_update_requests) + " != 0");
  }
}

/// The membership contract (storage/prefix_store.hpp): for every store
/// kind, contains_many32 over an arbitrary batch -- unsorted, with
/// duplicates, empty -- answers like a plain reference. For the exact
/// stores (raw-sorted, delta-coded, v4 raw-hash) the reference is
/// std::binary_search over the sorted member list; for Bloom every member
/// answers true and each batch answer equals the batch-of-one answer
/// (false positives are a pure function of the queried bytes). Store shape
/// (entry count, Bloom sizing) and query mix derive from the scenario's
/// seed and blacklist knobs, so the fuzzer's configuration walk explores
/// store sizes and densities no fixed unit test pins down. This is the
/// oracle behind the engine's batch prefilter: a sorted-probe cursor bug
/// here surfaces as a query-log divergence there.
void check_batch_scalar_equivalence(const Scenario& base, Collector& collect) {
  collect.begin(kBatchScalarEquivalence);
  const SimConfig& config = base.config;
  const std::size_t entries = std::max<std::size_t>(
      std::size_t{1}, std::min<std::size_t>(config.blacklist.max_entries, 4096));

  util::Rng member_rng(config.seed ^ 0xBA7C45CA1A12ULL);
  std::vector<crypto::Prefix32> member_list;
  for (std::size_t i = 0; i < entries; ++i) {
    member_list.push_back(static_cast<crypto::Prefix32>(member_rng.next()));
  }
  std::sort(member_list.begin(), member_list.end());
  member_list.erase(std::unique(member_list.begin(), member_list.end()),
                    member_list.end());
  storage::PrefixBatch members(4);
  members.assign_sorted32(member_list);

  // Query mix: ~half members, half random, deliberately unsorted, first
  // query duplicated at the tail (cursor-resumption stress). Sized past
  // the 64-entry inline scratch of BatchOrder.
  util::Rng query_rng(config.seed ^ 0x0B5E53A1E5ULL);
  std::vector<crypto::Prefix32> queries;
  const std::size_t query_count = 96 + query_rng.next() % 64;
  for (std::size_t i = 0; i < query_count; ++i) {
    queries.push_back(query_rng.next() % 2 == 0
                          ? member_list[query_rng.next() % member_list.size()]
                          : static_cast<crypto::Prefix32>(query_rng.next()));
  }
  queries.push_back(queries.front());
  queries.push_back(queries.front());

  const auto answers =
      std::make_unique<bool[]>(std::max(queries.size(), member_list.size()));
  const std::span<bool> out(answers.get(), queries.size());
  // Reports the first index whose answer differs from `expected(i)`; one
  // index per store kind is diagnosis enough.
  const auto compare = [&](const std::string& name, const char* reference,
                           auto&& expected) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (out[i] != expected(i)) {
        collect.fail(name + ": contains_many32[" + num(i) + "]=" +
                     (out[i] ? "true" : "false") + " but " + reference +
                     " says " + (expected(i) ? "true" : "false") +
                     " for prefix " + crypto::prefix32_hex(queries[i]));
        return;
      }
    }
  };
  const auto listed = [&](std::size_t i) {
    return std::binary_search(member_list.begin(), member_list.end(),
                              queries[i]);
  };

  const std::pair<const char*, storage::StoreKind> exact[] = {
      {"raw-sorted", storage::StoreKind::kRawSorted},
      {"delta-coded", storage::StoreKind::kDeltaCoded},
  };
  for (const auto& [name, kind] : exact) {
    const auto store = make_store(kind, members);
    store->contains_many32(queries, out);
    store->contains_many32({}, {});  // empty batch must be a no-op
    compare(name, "binary search", listed);
  }

  const std::size_t bloom_bits =
      config.bloom_bits != 0 ? config.bloom_bits : members.size() * 16;
  const auto bloom =
      make_store(storage::StoreKind::kBloom, members, bloom_bits);
  bloom->contains_many32(queries, out);
  compare("bloom", "batch of one",
          [&](std::size_t i) { return bloom->contains32(queries[i]); });
  const std::span<bool> all(answers.get(), member_list.size());
  bloom->contains_many32(member_list, all);
  const auto missed = std::find(all.begin(), all.end(), false);
  if (missed != all.end()) {
    collect.fail("bloom: member " +
                 crypto::prefix32_hex(member_list[static_cast<std::size_t>(
                     missed - all.begin())]) +
                 " answered false");
  }

  // The v4 store is not a PrefixStore; same law, own entry point.
  storage::RawHashStore v4_store;
  if (!v4_store.reset(member_list)) {
    collect.fail("raw-hash: reset rejected a sorted member list");
    return;
  }
  v4_store.contains_many32(queries, out);
  compare("raw-hash", "binary search", listed);
}

/// The engine's seed derivation (engine.cpp), restated: the reference
/// must give user u the same RNG stream, interest, generation and re-sync
/// slot as the engine does.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ salt;
  return util::splitmix64(state);
}

/// Whether member `i` of an n-member population falls in an exact
/// even-spread `fraction` of it (the engine's interest/mix split).
bool in_spread(std::size_t i, double fraction) {
  return static_cast<std::size_t>(static_cast<double>(i + 1) * fraction) >
         static_cast<std::size_t>(static_cast<double>(i) * fraction);
}

/// The engine.hpp claim, checked: every URL gets the result a per-user
/// client.lookup(url) gives. A naive replay of the paper's Figure 3 client
/// flow runs next to the engine on a shrunk population: each user builds
/// each URL string from a freshly generated site, calls lookup(url) (or,
/// under mitigation, pads its local hits itself) and applies its own
/// updates (no sync-state cache). No URL cache, universe prefilter, site
/// table or shared client state. A zero-user Engine is only the server side: it
/// seeds the lists and applies each churn epoch before the users' tick.
/// Query-log fingerprint, malicious verdicts, every TransportStats
/// counter and each v4 user's list checksums must match the engine's.
void check_reference_equivalence(const Scenario& base, Collector& collect) {
  collect.begin(kReferenceEquivalence);
  SimConfig config = base.config;
  config.num_users = std::min<std::size_t>(config.num_users, 256);
  config.ticks = std::min<std::uint64_t>(config.ticks, 64);
  config.num_threads = 1;

  Engine engine(config);
  CountingSink engine_log;
  engine.attach_sink(&engine_log);
  engine.run();

  SimConfig server_config = config;
  server_config.num_users = 0;
  Engine server_side(server_config);
  CountingSink reference_log;
  server_side.attach_sink(&reference_log);
  sb::SimClock clock;
  sb::InProcessTransport transport(server_side.server(), clock,
                                   /*round_trip_ticks=*/0);
  const TrafficModel& model = server_side.traffic_model();
  const mitigation::DummyPolicy dummies(config.mitigation.dummies_per_prefix);
  const std::size_t shards = std::max<std::size_t>(1, config.num_shards);
  const std::uint64_t cadence = server_side.resync_cadence();
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

  std::vector<UserState> users(config.num_users);
  std::vector<std::uint64_t> resync_slot(config.num_users, 0);
  for (std::size_t u = 0; u < users.size(); ++u) {
    UserState& user = users[u];
    user.cookie = static_cast<sb::Cookie>(u + 1);
    user.rng = util::Rng(
        derive_seed(config.seed, 0x05E2000000000000ULL + u * kGolden));
    user.interested = in_spread(u, config.traffic.interested_fraction);
    sb::ClientConfig client;
    client.protocol = in_spread(config.num_users - 1 - u, config.mix_fraction)
                          ? config.mix_protocol
                          : config.protocol;
    client.store_kind = config.store_kind;
    client.bloom_bits = config.bloom_bits;
    client.full_hash_ttl = config.full_hash_ttl;
    client.cookie = user.cookie;
    user.client = sb::make_protocol_client(transport, client);
    for (const auto& list : config.blacklist.lists) {
      user.client->subscribe(list);
    }
    (void)user.client->update();
    if (config.churn.epoch_ticks > 0) {
      resync_slot[u] =
          derive_seed(config.seed, 0x5C4EDB1E00000000ULL + u * kGolden) %
          cadence;
    }
  }

  // The padded exchange of a mitigated lookup, from the URL string.
  const auto padded_lookup = [&](sb::ProtocolClient& client,
                                 const std::string& url) {
    std::vector<crypto::Digest256> digests;
    std::vector<crypto::Prefix32> unique;
    for (const auto& d : url::decompose(url)) {
      digests.push_back(crypto::Digest256::of(d.expression));
      const crypto::Prefix32 prefix = digests.back().prefix32();
      if (std::find(unique.begin(), unique.end(), prefix) == unique.end()) {
        unique.push_back(prefix);
      }
    }
    std::vector<crypto::Prefix32> hits;
    for (const crypto::Prefix32 prefix : unique) {
      if (client.local_contains(prefix)) hits.push_back(prefix);
    }
    if (hits.empty()) return false;
    const auto response = transport.get_full_hashes_or_error(
        dummies.pad_request(hits), client.cookie());
    if (!response) return false;
    for (const crypto::Digest256& digest : digests) {
      const auto it = response->matches.find(digest.prefix32());
      if (it == response->matches.end() ||
          std::find(hits.begin(), hits.end(), it->first) == hits.end()) {
        continue;
      }
      for (const auto& match : it->second) {
        if (match.digest == digest) return true;
      }
    }
    return false;
  };

  std::uint64_t malicious = 0;
  std::vector<TrafficModel::VisitId> visits;
  for (std::uint64_t tick = 0; tick < config.ticks; ++tick) {
    server_side.step();  // this tick's churn epoch, if one is due
    for (std::size_t s = 0; s < shards; ++s) {
      for (std::size_t u = s; u < users.size(); u += shards) {
        UserState& user = users[u];
        sb::ProtocolClient& client = *user.client;
        if (config.churn.epoch_ticks > 0 && resync_slot[u] == tick % cadence &&
            client.version() != sb::ProtocolVersion::kV1Lookup &&
            client.update_wait(clock.now()) == 0) {
          (void)client.update();
        }
        visits.clear();
        (void)plan_user_tick(user, config.traffic, model, visits);
        for (const TrafficModel::VisitId visit : visits) {
          const std::string url =
              (visit & TrafficModel::kTargetVisit) != 0
                  ? config.traffic.target_urls[visit &
                                               ~TrafficModel::kTargetVisit]
                  : model.corpus()
                        .site(static_cast<std::size_t>(visit >> 32))
                        .pages[visit & 0xFFFFFFFFu]
                        .url();
          const bool verdict =
              config.mitigation.dummy_requests
                  ? padded_lookup(client, url)
                  : client.lookup(url).verdict == sb::Verdict::kMalicious;
          if (verdict) ++malicious;
        }
      }
    }
    clock.advance(1);
  }

  collect.law(engine_log.fingerprint() == reference_log.fingerprint(),
              "log fingerprint engine=" + num(engine_log.fingerprint()) +
                  " reference=" + num(reference_log.fingerprint()) +
                  " (entries " + num(engine_log.entries()) + " vs " +
                  num(reference_log.entries()) + ")");
  collect.law(engine.metrics().malicious_verdicts == malicious,
              "malicious_verdicts engine=" +
                  num(engine.metrics().malicious_verdicts) +
                  " reference=" + num(malicious));
  const sb::TransportStats engine_wire = engine.transport_stats();
  const sb::TransportStats reference_wire = transport.stats();
  for (const auto& field : sb::TransportStats::kCounters) {
    collect.law(engine_wire.*field.member == reference_wire.*field.member,
                std::string("wire.") + field.name + " engine=" +
                    num(engine_wire.*field.member) +
                    " reference=" + num(reference_wire.*field.member));
  }
  for (std::size_t u = 0; u < users.size(); ++u) {
    const auto* mine = dynamic_cast<const sb::V4SlicedProtocol*>(
        users[u].client.get());
    const auto* theirs =
        dynamic_cast<const sb::V4SlicedProtocol*>(&engine.user_client(u));
    if (mine == nullptr || theirs == nullptr) continue;
    for (const auto& list : config.blacklist.lists) {
      collect.law(mine->list_checksum(list) == theirs->list_checksum(list),
                  "user " + num(u) + " " + list + ": v4 list_checksum engine=" +
                      num(theirs->list_checksum(list)) +
                      " reference=" + num(mine->list_checksum(list)));
    }
  }
}

}  // namespace

const std::vector<std::string>& invariant_names() {
  static const std::vector<std::string> names = {
      kCanonicalRoundtrip,   kThreadDeterminism,   kMetricsTransparency,
      kProtocolEquivalence,  kCounterConservation, kCheckpointRestore,
      kBatchScalarEquivalence, kReferenceEquivalence};
  return names;
}

std::string InvariantReport::summary() const {
  if (ok()) return num(checked.size()) + " invariants ok";
  std::vector<std::string> parts;
  for (const auto& failure : failures) {
    parts.push_back(failure.invariant + ": " + failure.detail);
  }
  return join(parts, " | ");
}

bool InvariantReport::failed(const std::string& invariant) const {
  return std::any_of(failures.begin(), failures.end(),
                     [&](const InvariantFailure& failure) {
                       return failure.invariant == invariant;
                     });
}

InvariantReport check_invariants(const Scenario& scenario,
                                 const InvariantOptions& options) {
  InvariantReport report;
  Collector collect(report, options);

  if (!options.doctor.empty()) {
    const auto& names = invariant_names();
    if (std::find(names.begin(), names.end(), options.doctor) ==
        names.end()) {
      report.failures.push_back(
          {options.doctor,
           "unknown invariant for --doctor (valid: " + join(names, ", ") +
               ")"});
      return report;
    }
  }

  check_canonical_roundtrip(scenario, collect);

  const Scenario base = base_scenario(scenario);
  const std::size_t baseline_threads =
      options.thread_counts.empty() ? 1 : options.thread_counts.front();
  const ScenarioRunResult baseline = run_scenario(base, baseline_threads);

  check_thread_determinism(base, baseline, baseline_threads, options,
                           collect);
  check_metrics_transparency(base, baseline, baseline_threads, collect);
  check_protocol_equivalence(base, collect);
  check_counter_conservation(base, baseline, collect);
  check_checkpoint_restore(base, collect);
  check_batch_scalar_equivalence(base, collect);
  check_reference_equivalence(base, collect);
  collect.finish_doctor();

  return report;
}

namespace {

/// One shrinking transform: returns the simplified scenario, or nullopt
/// when it does not apply (already minimal in that dimension).
using Transform =
    std::function<std::optional<Scenario>(const Scenario&)>;

std::vector<std::pair<const char*, Transform>> shrink_transforms() {
  auto with = [](const Scenario& s,
                 const std::function<void(SimConfig&)>& edit) {
    Scenario out = s;
    edit(out.config);
    return out;
  };
  return {
      {"halve-users",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.num_users <= 1) return std::nullopt;
         return with(s, [](SimConfig& c) {
           c.num_users = std::max<std::size_t>(1, c.num_users / 2);
         });
       }},
      {"halve-ticks",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.ticks <= 1) return std::nullopt;
         return with(s, [](SimConfig& c) {
           c.ticks = std::max<std::uint64_t>(1, c.ticks / 2);
         });
       }},
      {"single-shard",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.num_shards <= 1) return std::nullopt;
         return with(s, [](SimConfig& c) { c.num_shards = 1; });
       }},
      {"halve-hosts",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.corpus.num_hosts <= 1) return std::nullopt;
         return with(s, [](SimConfig& c) {
           c.corpus.num_hosts =
               std::max<std::size_t>(1, c.corpus.num_hosts / 2);
         });
       }},
      {"halve-pages",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         const std::uint64_t floor =
             std::max<std::uint64_t>(1, s.config.corpus.min_pages);
         if (s.config.corpus.max_pages / 2 < floor) return std::nullopt;
         return with(s, [](SimConfig& c) { c.corpus.max_pages /= 2; });
       }},
      {"halve-blacklist",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.blacklist.max_entries <= 1) return std::nullopt;
         return with(s, [](SimConfig& c) {
           c.blacklist.max_entries =
               std::max<std::size_t>(1, c.blacklist.max_entries / 2);
           if (c.bloom_bits > 0) {
             c.bloom_bits = population_bloom_bits(c.blacklist.max_entries);
           }
         });
       }},
      {"drop-churn",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.churn.epoch_ticks == 0) return std::nullopt;
         return with(s, [](SimConfig& c) { c.churn = ChurnConfig{}; });
       }},
      {"drop-injections",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.churn.injections.empty()) return std::nullopt;
         return with(s, [](SimConfig& c) { c.churn.injections.clear(); });
       }},
      {"drop-mitigation",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (!s.config.mitigation.dummy_requests) return std::nullopt;
         return with(s,
                     [](SimConfig& c) { c.mitigation = MitigationConfig{}; });
       }},
      {"drop-mix",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.mix_fraction == 0.0) return std::nullopt;
         return with(s, [](SimConfig& c) { c.mix_fraction = 0.0; });
       }},
      {"delta-store",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.store_kind == storage::StoreKind::kDeltaCoded) {
           return std::nullopt;
         }
         return with(s, [](SimConfig& c) {
           c.store_kind = storage::StoreKind::kDeltaCoded;
           c.bloom_bits = 0;
         });
       }},
      {"drop-ttl",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.full_hash_ttl == 0) return std::nullopt;
         return with(s, [](SimConfig& c) { c.full_hash_ttl = 0; });
       }},
      {"drop-orphans",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.blacklist.orphan_prefixes == 0) return std::nullopt;
         return with(s,
                     [](SimConfig& c) { c.blacklist.orphan_prefixes = 0; });
       }},
      {"single-list",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.blacklist.lists.size() <= 1) return std::nullopt;
         return with(s, [](SimConfig& c) {
           c.blacklist.lists.resize(1);
           for (auto& injection : c.churn.injections) injection.list.clear();
         });
       }},
      {"drop-targets",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.traffic.target_urls.empty()) return std::nullopt;
         return with(s, [](SimConfig& c) {
           c.traffic.target_urls.clear();
           c.traffic.interested_fraction = 0.0;
         });
       }},
      {"calm-traffic",
       [&with](const Scenario& s) -> std::optional<Scenario> {
         if (s.config.traffic.revisit_probability == 0.0 &&
             s.config.traffic.lookups_per_active_tick <= 1) {
           return std::nullopt;
         }
         return with(s, [](SimConfig& c) {
           c.traffic.revisit_probability = 0.0;
           c.traffic.lookups_per_active_tick = 1;
         });
       }},
  };
}

}  // namespace

ShrinkResult shrink_failing_scenario(const Scenario& scenario,
                                     const InvariantOptions& options) {
  ShrinkResult result;
  result.scenario = scenario;
  result.report = check_invariants(scenario, options);
  if (result.report.ok()) return result;  // nothing to shrink

  // Minimize against the FIRST failing invariant: a shrink step that
  // trades it for a different failure is rejected (it would chase a
  // moving target and the repro would stop demonstrating the original
  // bug).
  const std::string target = result.report.failures.front().invariant;
  const auto transforms = shrink_transforms();

  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const auto& [name, transform] : transforms) {
      (void)name;
      std::optional<Scenario> candidate = transform(result.scenario);
      if (!candidate) continue;
      ++result.steps_tried;
      InvariantReport candidate_report = check_invariants(*candidate, options);
      if (!candidate_report.failed(target)) continue;
      result.scenario = std::move(*candidate);
      result.report = std::move(candidate_report);
      ++result.steps_accepted;
      progressed = true;
    }
  }
  return result;
}

}  // namespace sbp::sim
