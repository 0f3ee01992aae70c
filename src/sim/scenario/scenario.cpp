#include "sim/scenario/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace sbp::sim {

namespace json = util::json;

namespace {

/// u64 -> JSON: plain integer when exactly representable, "0x..." hex
/// string above int64 range (a bare > 2^63 number would be stored as a
/// lossy double and then rejected on reload).
json::Value u64_value(std::uint64_t value) {
  if (value <= 0x7FFFFFFFFFFFFFFFULL) return json::Value(value);
  return json::Value(json::hex_u64(value));
}

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

/// The validity rule of one field, checked on the field's final value (an
/// absent key keeps its default, which always passes). kHex is a format:
/// the u64 is written, and must be read, as a "0x..." string.
enum class Rule {
  kAny,
  kAtLeastOne,
  kAboveOne,
  kUnitInterval,
  kNonEmpty,
  kHex,
};

/// " must be ..." when `value` breaks `rule`, else nullptr.
template <class T>
const char* violation(const T& value, Rule rule) {
  if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    if (rule == Rule::kAtLeastOne && !(value >= 1)) return " must be >= 1";
    if (rule == Rule::kAboveOne && !(value > 1)) return " must be > 1";
    if (rule == Rule::kUnitInterval && !(value >= 0 && value <= 1)) {
      return " must be in [0, 1]";
    }
  } else if constexpr (std::is_same_v<T, std::string> || kIsVector<T>) {
    if (rule == Rule::kNonEmpty && value.empty()) return " must be non-empty";
  }
  return nullptr;
}

// --------------------------- enum spellings --------------------------------

/// One accepted spelling of an enum value. The first spelling listed for a
/// value is its canonical (written) form; the rest are accepted aliases.
template <class E>
struct Spelling {
  std::string_view text;
  E value;
};

constexpr Spelling<sb::Provider> kProviders[] = {
    {"google", sb::Provider::kGoogle},
    {"yandex", sb::Provider::kYandex},
};
constexpr Spelling<sb::ProtocolVersion> kProtocols[] = {
    {"v1-lookup", sb::ProtocolVersion::kV1Lookup},
    {"v1", sb::ProtocolVersion::kV1Lookup},
    {"v3-chunked", sb::ProtocolVersion::kV3Chunked},
    {"v3", sb::ProtocolVersion::kV3Chunked},
    {"v4-sliced", sb::ProtocolVersion::kV4Sliced},
    {"v4", sb::ProtocolVersion::kV4Sliced},
};
constexpr Spelling<storage::StoreKind> kStores[] = {
    {"raw-sorted", storage::StoreKind::kRawSorted},
    {"raw", storage::StoreKind::kRawSorted},
    {"delta-coded", storage::StoreKind::kDeltaCoded},
    {"delta", storage::StoreKind::kDeltaCoded},
    {"bloom", storage::StoreKind::kBloom},
};

std::span<const Spelling<sb::Provider>> spellings(sb::Provider) {
  return kProviders;
}
std::span<const Spelling<sb::ProtocolVersion>> spellings(
    sb::ProtocolVersion) {
  return kProtocols;
}
std::span<const Spelling<storage::StoreKind>> spellings(storage::StoreKind) {
  return kStores;
}

// ---------------------------------------------------------------------------
// Strict reader: every key must be consumed exactly once; leftovers are an
// error naming the key and its context path ("config.traffic"). After the
// first error every accessor becomes a no-op, so the field lists read
// linearly and the caller checks the accumulated error once.
// ---------------------------------------------------------------------------
class Reader {
 public:
  /// `root` marks the scenario document itself, whose blocks are named
  /// "config", "report", ... rather than "scenario.config".
  Reader(const json::Value& value, std::string context, std::string* error,
         bool root = false)
      : context_(std::move(context)), error_(error), root_(root) {
    if (!value.is_object()) {
      fail(context_ + " must be a JSON object");
      return;
    }
    object_ = &value.as_object();
    consumed_.assign(object_->size(), false);
  }

  /// One field: read `key` into `out` when present, then check `rule`.
  template <class T>
  void operator()(std::string_view key, T& out, Rule rule = Rule::kAny) {
    if (!ok()) return;
    if (const json::Value* value = take(key)) {
      read(*value, root_ ? std::string(key) : path(key), out, rule);
    }
    if (!ok()) return;
    if (const char* broken = violation(out, rule)) fail(path(key) + broken);
  }

  /// Call last: any unconsumed key is a strict-parse failure.
  void finish() {
    if (!ok() || object_ == nullptr) return;
    for (std::size_t i = 0; i < object_->size(); ++i) {
      if (!consumed_[i]) {
        fail("unknown key \"" + (*object_)[i].first + "\" in " + context_);
        return;
      }
    }
  }

 private:
  [[nodiscard]] bool ok() const noexcept { return error_->empty(); }

  void fail(std::string message) {
    if (ok()) *error_ = std::move(message);
  }

  [[nodiscard]] std::string path(std::string_view key) const {
    return context_ + "." + std::string(key);
  }

  /// Consumes `key`; nullptr when absent (absent = keep the default).
  const json::Value* take(std::string_view key) {
    if (object_ == nullptr) return nullptr;
    for (std::size_t i = 0; i < object_->size(); ++i) {
      if ((*object_)[i].first == key) {
        consumed_[i] = true;
        return &(*object_)[i].second;
      }
    }
    return nullptr;
  }

  /// Reads `value` (located at `where`) into `out`.
  template <class T>
  void read(const json::Value& value, const std::string& where, T& out,
            Rule rule) {
    if constexpr (std::is_same_v<T, bool>) {
      if (!value.is_bool()) return fail(where + " must be true or false");
      out = value.as_bool();
    } else if constexpr (std::is_same_v<T, double>) {
      if (!value.is_number()) return fail(where + " must be a number");
      out = value.as_double();
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!value.is_string()) return fail(where + " must be a string");
      out = value.as_string();
    } else if constexpr (std::is_enum_v<T>) {
      if (!value.is_string()) return fail(where + " must be a string");
      std::string expected;
      for (const auto& spelling : spellings(T{})) {
        if (spelling.text == value.as_string()) {
          out = spelling.value;
          return;
        }
        expected += (expected.empty() ? "\"" : ", \"") +
                    std::string(spelling.text) + "\"";
      }
      fail(where + ": unknown value \"" + value.as_string() +
           "\" (expected one of " + expected + ")");
    } else if constexpr (std::is_unsigned_v<T>) {
      read_unsigned(value, where, out, rule);
    } else if constexpr (kIsVector<T>) {
      if (!value.is_array()) return fail(where + " must be an array");
      out.clear();
      for (std::size_t i = 0; i < value.as_array().size() && ok(); ++i) {
        read(value.as_array()[i], where + "[" + std::to_string(i) + "]",
             out.emplace_back(), Rule::kAny);
      }
    } else if constexpr (kIsOptional<T>) {
      read(value, where, out.emplace(), rule);
    } else {
      Reader block(value, where, error_);
      fields(block, out);
      block.finish();
    }
  }

  /// Values above int64 range travel as "0x..." hex strings (the repo's
  /// u64 convention, util/json/json.hpp) -- accept both spellings.
  template <class T>
  void read_unsigned(const json::Value& value, const std::string& where,
                     T& out, Rule rule) {
    std::uint64_t raw = 0;
    if (value.is_string()) {
      const auto parsed = json::parse_hex_u64(value.as_string());
      if (!parsed) return fail(where + ": not a \"0x...\" hex string");
      raw = *parsed;
    } else if (rule == Rule::kHex) {
      return fail(where + " must be a \"0x...\" hex string");
    } else if (!value.is_integer() || value.as_int64() < 0) {
      return fail(where + " must be a non-negative integer");
    } else {
      raw = static_cast<std::uint64_t>(value.as_int64());
    }
    if (raw > std::numeric_limits<T>::max()) {
      return fail(where + " out of range");
    }
    out = static_cast<T>(raw);
  }

  const json::Object* object_ = nullptr;
  std::vector<bool> consumed_;
  std::string context_;
  std::string* error_;
  bool root_;
};

/// The canonical writer: every field explicit, in field-list order.
class Writer {
 public:
  template <class T>
  void operator()(std::string_view key, const T& value,
                  Rule rule = Rule::kAny) {
    if constexpr (kIsOptional<T>) {
      if (value) out_.set(key, to_json(*value, rule));
    } else {
      out_.set(key, to_json(value, rule));
    }
  }

  template <class T>
  static json::Value to_json(const T& value, Rule rule = Rule::kAny) {
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                  std::is_same_v<T, std::string>) {
      return json::Value(value);
    } else if constexpr (std::is_enum_v<T>) {
      for (const auto& spelling : spellings(value)) {
        if (spelling.value == value) return json::Value(spelling.text);
      }
      return json::Value(spellings(value).front().text);
    } else if constexpr (std::is_unsigned_v<T>) {
      return rule == Rule::kHex ? json::Value(json::hex_u64(value))
                                : u64_value(value);
    } else if constexpr (kIsVector<T>) {
      json::Array items;
      for (const auto& item : value) items.push_back(to_json(item));
      return json::Value(std::move(items));
    } else {
      Writer block;
      fields(block, value);
      return std::move(block.out_);
    }
  }

 private:
  json::Value out_{json::Object{}};
};

// ---------------------------------------------------------------------------
// The field lists: one per block, in canonical (written) order. Each entry
// is the JSON name, the member and its validity rule; the Reader and the
// Writer both walk these, so a knob is declared exactly once here. Field
// names mirror docs/simulation.md.
// ---------------------------------------------------------------------------

/// `B` is `T`, possibly const: the Reader walks a mutable block, the
/// Writer a const one.
template <class B, class T>
concept BlockOf = std::is_same_v<std::remove_const_t<B>, T>;

template <class Io, BlockOf<corpus::CorpusConfig> B>
void fields(Io& io, B& corpus) {
  io("num_hosts", corpus.num_hosts, Rule::kAtLeastOne);
  io("seed", corpus.seed);
  io("alpha", corpus.alpha, Rule::kAboveOne);
  io("max_pages", corpus.max_pages);
  io("single_page_fraction", corpus.single_page_fraction);
  io("min_pages", corpus.min_pages);
  io("subdomain_probability", corpus.subdomain_probability);
  io("query_probability", corpus.query_probability);
  io("directory_page_probability", corpus.directory_page_probability);
}

template <class Io, BlockOf<TrafficConfig> B>
void fields(Io& io, B& traffic) {
  io("site_popularity_alpha", traffic.site_popularity_alpha, Rule::kAboveOne);
  io("revisit_probability", traffic.revisit_probability);
  io("revisit_window", traffic.revisit_window);
  io("session_start_probability", traffic.session_start_probability);
  io("session_continue_probability", traffic.session_continue_probability);
  io("lookups_per_active_tick", traffic.lookups_per_active_tick);
  io("target_urls", traffic.target_urls);
  io("interested_fraction", traffic.interested_fraction);
  io("target_visit_probability", traffic.target_visit_probability);
}

template <class Io, BlockOf<BlacklistConfig> B>
void fields(Io& io, B& blacklist) {
  io("lists", blacklist.lists, Rule::kNonEmpty);
  io("page_fraction", blacklist.page_fraction);
  io("site_fraction", blacklist.site_fraction);
  io("max_entries", blacklist.max_entries);
  io("orphan_prefixes", blacklist.orphan_prefixes);
}

template <class Io, BlockOf<PrefixInjection> B>
void fields(Io& io, B& injection) {
  io("epoch", injection.epoch);
  io("list", injection.list);
  io("expression", injection.expression, Rule::kNonEmpty);
}

template <class Io, BlockOf<ChurnConfig> B>
void fields(Io& io, B& churn) {
  io("epoch_ticks", churn.epoch_ticks);
  io("add_rate", churn.add_rate);
  io("remove_rate", churn.remove_rate);
  io("max_epoch_adds", churn.max_epoch_adds);
  io("minimum_wait_ticks", churn.minimum_wait_ticks);
  io("injections", churn.injections);
}

template <class Io, BlockOf<MitigationConfig> B>
void fields(Io& io, B& mitigation) {
  io("dummy_requests", mitigation.dummy_requests);
  io("dummies_per_prefix", mitigation.dummies_per_prefix);
}

template <class Io, BlockOf<SimConfig> B>
void fields(Io& io, B& config) {
  io("num_users", config.num_users, Rule::kAtLeastOne);
  io("ticks", config.ticks, Rule::kAtLeastOne);
  io("num_shards", config.num_shards, Rule::kAtLeastOne);
  io("num_threads", config.num_threads);
  io("seed", config.seed);
  io("provider", config.provider);
  io("protocol", config.protocol);
  io("mix_fraction", config.mix_fraction, Rule::kUnitInterval);
  io("mix_protocol", config.mix_protocol);
  io("store_kind", config.store_kind);
  io("bloom_bits", config.bloom_bits);
  io("full_hash_ttl", config.full_hash_ttl);
  io("url_cache_entries", config.url_cache_entries);
  io("site_cache_entries", config.site_cache_entries);
  io("collect_metrics", config.collect_metrics);
  io("metrics_per_tick_series", config.metrics_per_tick_series);
  io("corpus", config.corpus);
  io("traffic", config.traffic);
  io("blacklist", config.blacklist);
  io("churn", config.churn);
  io("mitigation", config.mitigation);
}

template <class Io, BlockOf<ReportConfig> B>
void fields(Io& io, B& report) {
  io("transport", report.transport);
  io("metrics", report.metrics);
  io("population", report.population);
  io("kanonymity", report.kanonymity);
  io("reidentification", report.reidentification);
  io("reid_max_queries", report.reid_max_queries);
}

template <class Io, BlockOf<ScenarioGolden> B>
void fields(Io& io, B& golden) {
  io("fingerprint", golden.fingerprint, Rule::kHex);
  io("entries", golden.entries);
  io("prefixes", golden.prefixes);
  io("multi_prefix_entries", golden.multi_prefix_entries);
  io("lookups", golden.lookups);
  io("wire_bytes_up", golden.wire_bytes_up);
  io("wire_bytes_down", golden.wire_bytes_down);
}

template <class Io, BlockOf<ScenarioSnapshot> B>
void fields(Io& io, B& snapshot) {
  io("path", snapshot.path, Rule::kNonEmpty);
  io("at_epoch", snapshot.at_epoch);
}

template <class Io, BlockOf<Scenario> B>
void fields(Io& io, B& scenario) {
  io("name", scenario.name, Rule::kNonEmpty);
  io("description", scenario.description);
  io("config", scenario.config);
  io("report", scenario.report);
  io("golden", scenario.golden);
  io("snapshot", scenario.snapshot);
}

/// An injection may name any subscribed list, or none (= the first list);
/// a list no client subscribes to would make the injection unobservable.
void check_injection_lists(const SimConfig& config, std::string* error) {
  const std::vector<std::string>& lists = config.blacklist.lists;
  for (std::size_t i = 0; i < config.churn.injections.size(); ++i) {
    const std::string& list = config.churn.injections[i].list;
    if (!list.empty() &&
        std::find(lists.begin(), lists.end(), list) == lists.end()) {
      *error = "config.churn.injections[" + std::to_string(i) +
               "].list \"" + list + "\" is not in config.blacklist.lists";
      return;
    }
  }
}

}  // namespace

std::optional<Scenario> parse_scenario(const json::Value& document,
                                       std::string* error) {
  std::string local_error;
  std::string* sink = error != nullptr ? error : &local_error;
  sink->clear();

  Scenario scenario;
  Reader reader(document, "scenario", sink, /*root=*/true);
  fields(reader, scenario);
  reader.finish();
  if (sink->empty()) check_injection_lists(scenario.config, sink);
  if (!sink->empty()) return std::nullopt;
  return scenario;
}

std::optional<Scenario> load_scenario(const std::string& path,
                                      std::string* error) {
  std::string text;
  std::string local_error;
  std::string* sink = error != nullptr ? error : &local_error;
  if (!read_file(path, &text, sink)) return std::nullopt;
  const json::ParseResult parsed = json::parse(text);
  if (!parsed.ok()) {
    *sink = path + ": " + parsed.error.describe(text);
    return std::nullopt;
  }
  auto scenario = parse_scenario(*parsed.value, sink);
  if (!scenario && !sink->empty()) *sink = path + ": " + *sink;
  return scenario;
}

// ---------------------------------------------------------------------------
// Serialization: the canonical (fully explicit) form.
// ---------------------------------------------------------------------------

json::Value config_to_json(const SimConfig& config) {
  return Writer::to_json(config);
}

json::Value golden_to_json(const ScenarioGolden& golden) {
  return Writer::to_json(golden);
}

json::Value scenario_to_json(const Scenario& scenario) {
  return Writer::to_json(scenario);
}

// ---------------------------------------------------------------------------
// File I/O.
// ---------------------------------------------------------------------------

bool read_file(const std::string& path, std::string* out,
               std::string* error) {
  out->clear();
  FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  char buffer[1 << 16];
  std::size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, read);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    if (error != nullptr) *error = "read error on " + path;
    return false;
  }
  return true;
}

bool write_file(const std::string& path, const std::string& text,
                std::string* error) {
  FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot write " + path;
    return false;
  }
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  const bool closed = std::fclose(file) == 0;
  if (!ok || !closed) {
    if (error != nullptr) *error = "write error on " + path;
    return false;
  }
  return true;
}

}  // namespace sbp::sim
