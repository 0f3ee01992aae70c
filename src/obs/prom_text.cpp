#include "obs/prom_text.hpp"

#include <cinttypes>
#include <cstdio>

namespace sbp::obs {

namespace {

void append_u64(std::string& out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  out += buf;
}

void type_header(std::string& out, std::string_view prefix,
                 std::string_view name, std::string_view type) {
  out += "# TYPE ";
  out += prefix;
  out += '_';
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void sample(std::string& out, std::string_view prefix, std::string_view name,
            std::string_view labels, std::uint64_t value) {
  out += prefix;
  out += '_';
  out += name;
  out += labels;
  out += ' ';
  append_u64(out, value);
  out += '\n';
}

/// One native Prometheus histogram: cumulative buckets at the power-of-two
/// edges (only the occupied range, to keep the document compact), then the
/// mandatory +Inf bucket, _sum and _count. `labels` is "" or "{k=\"v\"}";
/// the `le` label is appended inside the existing braces when present.
void histogram_samples(std::string& out, std::string_view prefix,
                       std::string_view name, std::string_view labels,
                       const Histogram& histogram) {
  // Occupied bucket range; empty histograms emit just +Inf/_sum/_count.
  std::size_t first = Histogram::kBuckets;
  std::size_t last = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (histogram.bucket(i) == 0) continue;
    if (first == Histogram::kBuckets) first = i;
    last = i;
  }

  const std::string base_labels =
      labels.empty() ? std::string()
                     : std::string(labels.substr(1, labels.size() - 2)) + ",";
  std::uint64_t cumulative = 0;
  if (first < Histogram::kBuckets) {
    for (std::size_t i = first; i <= last && i < Histogram::kBuckets - 1;
         ++i) {
      cumulative += histogram.bucket(i);
      std::string le_labels = "{" + base_labels + "le=\"";
      char buf[24];
      std::snprintf(buf, sizeof buf, "%" PRIu64,
                    Histogram::bucket_upper_bound(i));
      le_labels += buf;
      le_labels += "\"}";
      sample(out, prefix, std::string(name) + "_bucket", le_labels,
             cumulative);
    }
  }
  const std::string inf_labels = "{" + base_labels + "le=\"+Inf\"}";
  sample(out, prefix, std::string(name) + "_bucket", inf_labels,
         histogram.count());
  sample(out, prefix, std::string(name) + "_sum", labels, histogram.sum());
  sample(out, prefix, std::string(name) + "_count", labels,
         histogram.count());
}

}  // namespace

std::string prometheus_text(const Snapshot& snapshot,
                            std::string_view prefix) {
  std::string out;
  out.reserve(8192);

  type_header(out, prefix, "ticks_total", "counter");
  sample(out, prefix, "ticks_total", "", snapshot.ticks);
  type_header(out, prefix, "threads", "gauge");
  sample(out, prefix, "threads", "",
         static_cast<std::uint64_t>(snapshot.threads_used));

  type_header(out, prefix, "phase_wall_ns_total", "counter");
  type_header(out, prefix, "phase_spans_total", "counter");
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Phase phase = static_cast<Phase>(i);
    const PhaseStats& stats = snapshot.phases.stats(phase);
    std::string labels = "{phase=\"";
    labels += phase_name(phase);
    labels += "\"}";
    sample(out, prefix, "phase_wall_ns_total", labels, stats.total_ns);
    sample(out, prefix, "phase_spans_total", labels, stats.spans);
  }
  type_header(out, prefix, "phase_span_ns", "histogram");
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Phase phase = static_cast<Phase>(i);
    std::string labels = "{phase=\"";
    labels += phase_name(phase);
    labels += "\"}";
    histogram_samples(out, prefix, "phase_span_ns", labels,
                      snapshot.phases.stats(phase).span_ns);
  }

  type_header(out, prefix, "pool_batches_total", "counter");
  sample(out, prefix, "pool_batches_total", "", snapshot.pool.batches);
  type_header(out, prefix, "pool_tasks_total", "counter");
  sample(out, prefix, "pool_tasks_total", "", snapshot.pool.tasks);
  type_header(out, prefix, "pool_dispatch_ns", "histogram");
  histogram_samples(out, prefix, "pool_dispatch_ns", "",
                    snapshot.pool.dispatch_ns);
  type_header(out, prefix, "pool_busy_ns", "histogram");
  histogram_samples(out, prefix, "pool_busy_ns", "", snapshot.pool.busy_ns);
  type_header(out, prefix, "pool_imbalance_items", "histogram");
  histogram_samples(out, prefix, "pool_imbalance_items", "",
                    snapshot.pool.imbalance_items);
  type_header(out, prefix, "pool_worker_busy_ns_total", "counter");
  type_header(out, prefix, "pool_worker_executed_total", "counter");
  for (std::size_t i = 0; i < snapshot.pool.workers.size(); ++i) {
    char labels[48];
    std::snprintf(labels, sizeof labels, "{worker=\"%zu\"}", i);
    sample(out, prefix, "pool_worker_busy_ns_total", labels,
           snapshot.pool.workers[i].busy_ns);
    sample(out, prefix, "pool_worker_executed_total", labels,
           snapshot.pool.workers[i].executed);
  }

  type_header(out, prefix, "wire_requests_total", "counter");
  type_header(out, prefix, "wire_bytes_up_total", "counter");
  type_header(out, prefix, "wire_bytes_down_total", "counter");
  for (std::size_t i = 0; i < kChannelCount; ++i) {
    const ChannelStats& stats = snapshot.transport.channels[i];
    std::string labels = "{channel=\"";
    labels += channel_name(static_cast<Channel>(i));
    labels += "\"}";
    sample(out, prefix, "wire_requests_total", labels,
           stats.request_bytes.count());
    sample(out, prefix, "wire_bytes_up_total", labels,
           stats.request_bytes.sum());
    sample(out, prefix, "wire_bytes_down_total", labels,
           stats.response_bytes.sum());
  }
  type_header(out, prefix, "wire_serve_ns", "histogram");
  for (std::size_t i = 0; i < kChannelCount; ++i) {
    std::string labels = "{channel=\"";
    labels += channel_name(static_cast<Channel>(i));
    labels += "\"}";
    histogram_samples(out, prefix, "wire_serve_ns", labels,
                      snapshot.transport.channels[i].serve_ns);
  }

  for (const auto& [name, value] : snapshot.counters) {
    type_header(out, prefix, name, "counter");
    sample(out, prefix, name, "", value);
  }
  return out;
}

}  // namespace sbp::obs
