#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "crypto/sha256.hpp"

namespace sbp::obs {

namespace json = util::json;

json::Value histogram_to_json(const Histogram& histogram) {
  json::Value dist{json::Object{}};
  dist.set("count", json::Value(histogram.count()));
  dist.set("sum", json::Value(histogram.sum()));
  dist.set("min", json::Value(histogram.min()));
  dist.set("max", json::Value(histogram.max()));
  dist.set("mean", json::Value(histogram.mean()));
  dist.set("p50", json::Value(histogram.quantile(0.50)));
  dist.set("p90", json::Value(histogram.quantile(0.90)));
  dist.set("p99", json::Value(histogram.quantile(0.99)));
  return dist;
}

namespace {

json::Value phase_to_json(const PhaseStats& stats) {
  json::Value phase{json::Object{}};
  phase.set("wall_ns", json::Value(stats.total_ns));
  phase.set("spans", json::Value(stats.spans));
  phase.set("span_ns", histogram_to_json(stats.span_ns));
  return phase;
}

json::Value pool_to_json(const PoolObs& pool) {
  json::Value out{json::Object{}};
  out.set("batches", json::Value(pool.batches));
  out.set("tasks", json::Value(pool.tasks));
  out.set("dispatch_ns", histogram_to_json(pool.dispatch_ns));
  out.set("busy_ns", histogram_to_json(pool.busy_ns));
  out.set("imbalance_items", histogram_to_json(pool.imbalance_items));
  json::Array workers;
  workers.reserve(pool.workers.size());
  for (const PoolObs::Worker& worker : pool.workers) {
    json::Value entry{json::Object{}};
    entry.set("busy_ns", json::Value(worker.busy_ns));
    entry.set("executed", json::Value(worker.executed));
    entry.set("batches", json::Value(worker.batches));
    workers.push_back(std::move(entry));
  }
  out.set("workers", json::Value(std::move(workers)));
  return out;
}

json::Value locks_to_json(
    const std::vector<std::pair<std::string, LockStats>>& locks) {
  json::Value out{json::Object{}};
  for (const auto& [name, stats] : locks) {
    json::Value lock{json::Object{}};
    lock.set("acquisitions", json::Value(stats.acquisitions));
    lock.set("wait_ns", histogram_to_json(stats.wait_ns));
    lock.set("hold_ns", histogram_to_json(stats.hold_ns));
    out.set(name, std::move(lock));
  }
  return out;
}

json::Value setup_to_json(const SetupTimes& setup) {
  json::Value out{json::Object{}};
  out.set("seed_blacklist_ns", json::Value(setup.seed_blacklist_ns));
  out.set("seal_universe_ns", json::Value(setup.seal_universe_ns));
  out.set("build_population_ns", json::Value(setup.build_population_ns));
  out.set("total_ns", json::Value(setup.total_ns));
  return out;
}

json::Value transport_to_json(const TransportObs& transport) {
  json::Value out{json::Object{}};
  for (std::size_t i = 0; i < kChannelCount; ++i) {
    const ChannelStats& stats = transport.channels[i];
    json::Value channel{json::Object{}};
    channel.set("requests", json::Value(stats.request_bytes.count()));
    channel.set("bytes_up", json::Value(stats.request_bytes.sum()));
    channel.set("bytes_down", json::Value(stats.response_bytes.sum()));
    channel.set("serve_ns", histogram_to_json(stats.serve_ns));
    channel.set("request_bytes", histogram_to_json(stats.request_bytes));
    channel.set("response_bytes", histogram_to_json(stats.response_bytes));
    out.set(channel_name(static_cast<Channel>(i)), std::move(channel));
  }
  return out;
}

json::Value counters_to_json(const util::CounterList& counters) {
  json::Value out{json::Object{}};
  for (const auto& [name, value] : counters) out.set(name, json::Value(value));
  return out;
}

/// Phase names sorted by descending wall time (ties by phase order) --
/// the "where did the time go" reading order.
std::vector<Phase> phases_by_wall(const PhaseProfile& phases) {
  std::vector<Phase> order;
  order.reserve(kPhaseCount);
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    order.push_back(static_cast<Phase>(i));
  }
  std::stable_sort(order.begin(), order.end(), [&](Phase a, Phase b) {
    return phases.stats(a).total_ns > phases.stats(b).total_ns;
  });
  return order;
}

std::string format_ms(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string format_us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", static_cast<double>(ns) / 1e3);
  return buf;
}

}  // namespace

json::Value snapshot_to_json(const Snapshot& snapshot) {
  json::Value out{json::Object{}};
  out.set("schema_version", json::Value(std::int64_t{1}));
  out.set("enabled", json::Value(snapshot.enabled));
  out.set("threads_used",
          json::Value(static_cast<std::uint64_t>(snapshot.threads_used)));
  out.set("ticks", json::Value(snapshot.ticks));
  // Which SHA-256 compression ran: the digests are the same either way,
  // the url_build time is not.
  out.set("sha256_backend", json::Value(crypto::sha256_backend()));

  json::Value phases{json::Object{}};
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Phase phase = static_cast<Phase>(i);
    phases.set(phase_name(phase), phase_to_json(snapshot.phases.stats(phase)));
  }
  out.set("phases", std::move(phases));

  json::Array by_wall;
  for (Phase phase : phases_by_wall(snapshot.phases)) {
    by_wall.push_back(json::Value(phase_name(phase)));
  }
  out.set("phases_by_wall", json::Value(std::move(by_wall)));

  if (snapshot.setup) out.set("setup", setup_to_json(*snapshot.setup));
  out.set("thread_pool", pool_to_json(snapshot.pool));
  if (!snapshot.locks.empty()) out.set("locks", locks_to_json(snapshot.locks));
  out.set("transport", transport_to_json(snapshot.transport));
  out.set("counters", counters_to_json(snapshot.counters));

  if (!snapshot.per_tick.empty()) {
    json::Array series;
    series.reserve(snapshot.per_tick.size());
    for (const TickSample& sample : snapshot.per_tick) {
      json::Value entry{json::Object{}};
      entry.set("tick", json::Value(sample.tick));
      for (std::size_t i = 0; i < kPhaseCount; ++i) {
        entry.set(phase_name(static_cast<Phase>(i)),
                  json::Value(sample.phase_ns[i]));
      }
      series.push_back(std::move(entry));
    }
    out.set("per_tick", json::Value(std::move(series)));
  }
  return out;
}

std::string summary_table(const Snapshot& snapshot) {
  std::string out;
  char line[160];

  std::snprintf(line, sizeof line,
                "-- metrics summary: threads=%zu ticks=%" PRIu64 " --\n",
                snapshot.threads_used, snapshot.ticks);
  out += line;

  if (snapshot.setup) {
    const SetupTimes& setup = *snapshot.setup;
    std::snprintf(line, sizeof line,
                  "setup: total=%sms seed_blacklist=%sms seal_universe=%sms "
                  "build_population=%sms\n",
                  format_ms(setup.total_ns).c_str(),
                  format_ms(setup.seed_blacklist_ns).c_str(),
                  format_ms(setup.seal_universe_ns).c_str(),
                  format_ms(setup.build_population_ns).c_str());
    out += line;
  }

  // Wall time per phase, descending. Parallel phases (plan/lookup) sum
  // CPU time across shards, so they can exceed parallel_tick wall time.
  std::snprintf(line, sizeof line, "%-14s %12s %10s %10s %10s %10s\n",
                "phase", "wall_ms", "spans", "p50_us", "p99_us", "max_us");
  out += line;
  for (Phase phase : phases_by_wall(snapshot.phases)) {
    const PhaseStats& stats = snapshot.phases.stats(phase);
    if (stats.spans == 0) continue;
    std::snprintf(line, sizeof line, "%-14s %12s %10" PRIu64
                  " %10s %10s %10s\n",
                  std::string(phase_name(phase)).c_str(),
                  format_ms(stats.total_ns).c_str(), stats.spans,
                  format_us(stats.span_ns.quantile(0.50)).c_str(),
                  format_us(stats.span_ns.quantile(0.99)).c_str(),
                  format_us(stats.span_ns.max()).c_str());
    out += line;
  }

  if (snapshot.pool.batches > 0) {
    std::snprintf(line, sizeof line,
                  "pool: batches=%" PRIu64 " tasks=%" PRIu64
                  " dispatch_p99=%sus busy_p99=%sus imbalance_max=%" PRIu64
                  "\n",
                  snapshot.pool.batches, snapshot.pool.tasks,
                  format_us(snapshot.pool.dispatch_ns.quantile(0.99)).c_str(),
                  format_us(snapshot.pool.busy_ns.quantile(0.99)).c_str(),
                  snapshot.pool.imbalance_items.max());
    out += line;
  }

  for (const auto& [name, stats] : snapshot.locks) {
    std::snprintf(line, sizeof line,
                  "lock/%-12s acquisitions=%-8" PRIu64
                  " wait_p99=%sus hold_p99=%sus\n",
                  name.c_str(), stats.acquisitions,
                  format_us(stats.wait_ns.quantile(0.99)).c_str(),
                  format_us(stats.hold_ns.quantile(0.99)).c_str());
    out += line;
  }

  for (std::size_t i = 0; i < kChannelCount; ++i) {
    const ChannelStats& stats = snapshot.transport.channels[i];
    if (stats.request_bytes.count() == 0) continue;
    std::snprintf(line, sizeof line,
                  "wire/%-10s req=%-8" PRIu64 " up=%-10" PRIu64
                  " down=%-10" PRIu64 " serve_p99=%sus\n",
                  std::string(channel_name(static_cast<Channel>(i))).c_str(),
                  stats.request_bytes.count(), stats.request_bytes.sum(),
                  stats.response_bytes.sum(),
                  format_us(stats.serve_ns.quantile(0.99)).c_str());
    out += line;
  }
  return out;
}

}  // namespace sbp::obs
