// Shared helpers for the table/figure reproduction benches: the strict
// argument reader, the one BENCH_*.json writer, the median-of-N sampler
// and report formatting.
//
// Every bench prints a self-describing report: the experiment id, the
// workload parameters (including any scale factor relative to the paper),
// and rows with paper= / measured= columns where the paper gives numbers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "util/json/json.hpp"
#include "util/strings.hpp"

namespace sbp::bench {

/// Strict CLI argument reader shared by every bench binary. Callers take
/// the flags/positionals they understand; finish() then rejects anything
/// left over with a non-zero exit -- a typoed `--user` must NOT silently
/// run the default workload (that bug shipped twice before CI noticed the
/// artifacts were wrong).
///
/// Usage:
///   sbp::bench::Args args(argc, argv);
///   std::size_t users = args.size_flag("--users", 100000);
///   std::string out = args.string_flag("--out", "BENCH_foo.json");
///   double scale = args.positional_double(0.05);   // optional positional
///   if (!args.finish()) return 1;                  // unknown args -> fail
class Args {
 public:
  Args(int argc, char** argv) : program_(argv[0]) {
    for (int i = 1; i < argc; ++i) tokens_.emplace_back(argv[i]);
    consumed_.assign(tokens_.size(), false);
  }

  /// Value of `--name VALUE`; `fallback` when absent. A flag without a
  /// value is an error.
  std::string string_flag(const char* name, std::string fallback) {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (consumed_[i] || tokens_[i] != name) continue;
      consumed_[i] = true;
      if (i + 1 >= tokens_.size() || consumed_[i + 1]) {
        fail(std::string(name) + " needs a value");
        return fallback;
      }
      consumed_[i + 1] = true;
      return tokens_[i + 1];
    }
    return fallback;
  }

  std::size_t size_flag(const char* name, std::size_t fallback) {
    return integer_like(string_flag(name, ""), name, fallback);
  }

  std::uint64_t u64_flag(const char* name, std::uint64_t fallback) {
    return integer_like(string_flag(name, ""), name, fallback);
  }

  /// Value of `--name 1,2,8`; `fallback` when absent.
  std::vector<std::uint64_t> u64_list_flag(
      const char* name, std::vector<std::uint64_t> fallback) {
    const std::string token = string_flag(name, "");
    if (token.empty()) return fallback;
    const auto values = util::parse_u64_list(token);
    if (!values) {
      fail(std::string(name) + ": not a list of non-negative integers: " +
           token);
      return fallback;
    }
    return *values;
  }

  /// Next unconsumed positional (non-"-…") argument, as a number.
  double positional_double(double fallback) {
    const std::optional<std::string> token = take_positional();
    if (!token) return fallback;
    char* end = nullptr;
    const double value = std::strtod(token->c_str(), &end);
    if (end == token->c_str() || *end != '\0') {
      fail("bad numeric argument: " + *token);
      return fallback;
    }
    return value;
  }

  std::size_t positional_size(std::size_t fallback) {
    const std::optional<std::string> token = take_positional();
    if (!token) return fallback;
    return integer_like(*token, "argument", fallback);
  }

  /// Call last. Any unconsumed argument (unknown flag, stray positional,
  /// typo) prints a clear message and makes finish() return false -- the
  /// caller exits non-zero.
  [[nodiscard]] bool finish() const {
    bool ok = error_.empty();
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (!consumed_[i]) {
        std::fprintf(stderr, "%s: unknown argument: %s\n", program_.c_str(),
                     tokens_[i].c_str());
        ok = false;
      }
    }
    if (!error_.empty()) {
      std::fprintf(stderr, "%s: %s\n", program_.c_str(), error_.c_str());
    }
    if (!ok) {
      std::fprintf(stderr, "%s: exiting; no bench was run\n",
                   program_.c_str());
    }
    return ok;
  }

 private:
  std::optional<std::string> take_positional() {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (consumed_[i] || tokens_[i].rfind("-", 0) == 0) continue;
      // A token right after an unconsumed "-..." token is presumed that
      // flag's value, not a positional -- otherwise calling a positional
      // accessor before a flag accessor would steal the flag's value
      // (e.g. `bench --out FILE` with the positional read first).
      if (i > 0 && !consumed_[i - 1] && tokens_[i - 1].rfind("-", 0) == 0) {
        continue;
      }
      consumed_[i] = true;
      return tokens_[i];
    }
    return std::nullopt;
  }

  std::uint64_t integer_like(const std::string& token, const char* what,
                             std::uint64_t fallback) {
    if (token.empty()) return fallback;
    const std::optional<std::uint64_t> value = util::parse_u64(token);
    if (!value) {
      fail(std::string(what) + ": not a non-negative integer: " + token);
      return fallback;
    }
    return *value;
  }

  void fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }

  std::string program_;
  std::vector<std::string> tokens_;
  std::vector<bool> consumed_;
  std::string error_;
};

/// Writes a BENCH_*.json artifact to `path` (the file CI uploads) and
/// prints only a one-line note -- the one JSON writer every
/// artifact-emitting bench shares. Machine-readable output goes to the
/// --out file ONLY, never interleaved with the human-facing bench log on
/// stdout. Returns false (after a stderr note) when the file cannot be
/// written, so benches can exit nonzero.
inline bool write_json(const util::json::Value& doc, const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return false;
  }
  const std::string text = util::json::dump(doc) + "\n";
  std::fputs(text.c_str(), out);
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// `value` rounded to `digits` decimals, for artifact fields whose extra
/// digits are timer noise (an integral result serializes as an integer).
inline double rounded(double value, int digits) {
  const double scale = std::pow(10.0, digits);
  return std::round(value * scale) / scale;
}

/// Samples behind every reported timing of the throughput benches: a
/// figure is the sample with the median run_seconds, never one cold run.
inline constexpr std::size_t kSamples = 5;

/// Calls `take()` kSamples times and returns the sample whose
/// `run.run_seconds` is the median. `take` checks each sample itself
/// (the benches run_diff every one against their reference run).
template <class Take>
auto median_sample(Take take) {
  std::vector<decltype(take())> samples;
  for (std::size_t i = 0; i < kSamples; ++i) samples.push_back(take());
  const auto middle = samples.begin() + kSamples / 2;
  std::nth_element(samples.begin(), middle, samples.end(),
                   [](const auto& a, const auto& b) {
                     return a.run.run_seconds < b.run.run_seconds;
                   });
  return *middle;
}

inline void header(const char* experiment, const char* description) {
  std::printf("\n================================================================\n");
  std::printf("%s -- %s\n", experiment, description);
  std::printf("================================================================\n");
}

inline void note(const char* text) { std::printf("note: %s\n", text); }

inline void scale_note(double scale) {
  std::printf("scale: %.4g x the paper's workload (shapes, not absolute "
              "counts, are the reproduction target)\n",
              scale);
}

inline std::string mb(std::size_t bytes) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buffer;
}

inline std::string pct(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f%%", fraction * 100.0);
  return buffer;
}

}  // namespace sbp::bench
