#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sys/resource.h>
#include <unistd.h>

#include "suite.hpp"
#include "util/json/json.hpp"

// Heap-traffic counter for sim.allocs_per_user_tick: replacing the global
// allocation functions counts every operator new in the process.
void* operator new(std::size_t size) {
  if (sbp::benchsuite::g_count_allocs) {
    sbp::benchsuite::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sbp::benchsuite {

std::atomic<std::uint64_t> g_alloc_count{0};
bool g_count_allocs = false;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * fraction;
}

double host_slowdown() {
  // About 1.5M cycles: 6 dependent single-cycle operations per iteration.
  constexpr int kIterations = 250'000;
  constexpr int kRepeats = 4;
  // The kernel's time at a typical clock of the 4-vCPU host the bounds were
  // measured on; readings there ranged from 0.81 to 1.3 of this.
  constexpr double kReferenceNs = 500'000.0;
  static volatile std::uint64_t escape = 0;
  double best_ns = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    // Seeded from a volatile read, so the chain cannot be folded at compile
    // time.
    std::uint64_t x = escape + 0x9E3779B97F4A7C15ULL;
    const std::uint64_t start = obs::now_ns();
    for (int i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    const auto ns = static_cast<double>(obs::now_ns() - start);
    escape = escape + x;
    if (r == 0 || ns < best_ns) best_ns = ns;
  }
  return best_ns / kReferenceNs;
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_bytes() {
  FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(statm, "%llu %llu", &size, &resident);
  std::fclose(statm);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE));
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Result::fail(std::string why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  problems.push_back(std::move(why));
}

void Result::metric(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    fail(name + " is not a finite number");
    value = 0.0;
  }
  metrics.push_back({std::move(name), {value, std::move(unit)}});
}

void Result::print() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].second.first);
    out += (i > 0 ? ", " : "") + json_string(metrics[i].first) +
           ": {\"value\": " + value +
           ", \"unit\": " + json_string(metrics[i].second.second) + "}";
  }
  out += "}, \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_string(problems[i]);
  }
  out += "]";
  if (golden) {
    out += ", \"golden\": " +
           util::json::dump(sim::golden_to_json(*golden), /*indent=*/0);
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::optional<Workload> load_workload(const std::string& path,
                                      std::optional<std::uint64_t> seed,
                                      std::string* error) {
  auto scenario = sim::load_scenario(path, error);
  if (!scenario) return std::nullopt;
  Workload workload;
  workload.name = scenario->name;
  const std::uint64_t committed = scenario->config.seed;
  // The seed draws the population, its browsing and the blacklist; the
  // synthetic web (corpus.seed) stays the workload's own, because its
  // power-law head alone moves a run's cost by more than the bounds.
  if (seed) scenario->config.seed = *seed;
  workload.golden_applies =
      scenario->golden.has_value() && scenario->config.seed == committed;
  workload.scenario = std::move(*scenario);
  return workload;
}

void check_golden(const Workload& workload,
                  const sim::ScenarioGolden& observed, Result& result) {
  if (!workload.golden_applies) return;
  for (const std::string& diff :
       sim::golden_diff(observed, *workload.scenario.golden)) {
    result.fail(workload.name + ": " + diff);
  }
}

}  // namespace sbp::benchsuite
