// The daemon workload: a net::Daemon on its own thread serves a captured
// request stream to 4 connections driven by one send thread and one
// receive thread. Phases: a closed-loop saturation phase (throughput), an
// open loop at the committed rate (latency, timed from each request's due
// time) and, in traced runs, a ladder of committed open-loop rates.
#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <string>
#include <sys/socket.h>
#include <thread>

#include "net/daemon.hpp"
#include "net/frame_codec.hpp"
#include "net/socket.hpp"
#include "sb/wire/frames.hpp"
#include "sim/log_sink.hpp"
#include "suite.hpp"
#include "util/rng.hpp"

namespace sbp::benchsuite {

namespace {

constexpr std::size_t kConnections = 4;
/// Closed-loop requests in flight per connection.
constexpr std::size_t kWindow = 16;
/// A request with no reply this long after sending stopped is unanswered.
constexpr std::uint64_t kDrainNs = 1'000'000'000;
/// Server builds timed for setup_s, about 2 s of them, so that their
/// median does not rest on one stretch of a busy host.
constexpr int kServerSetups = 25;
/// A ladder rung is sustained when its p99 stays within this limit and the
/// backlog drains (nothing unanswered, little queued when sending stops).
constexpr double kKneeP99Us = 1000.0;
/// Rates and percentiles are taken per window of this length. The
/// end-to-end figures are the best window of a phase: a shared host slows
/// whole stretches of seconds at a time, and the best window is the one
/// the host left alone, so it repeats from run to run.
constexpr std::uint64_t kWindowNs = 500'000'000;

struct Pending {
  std::uint32_t payload = 0;
  std::uint64_t tick = 0;
  std::uint64_t due_ns = 0;
};

/// Single-producer single-consumer ring of requests awaiting a reply.
/// The daemon answers each connection in order, so the head is always the
/// request the next response belongs to.
class PendingRing {
 public:
  PendingRing() : slots_(kCapacity) {}

  bool push(const Pending& pending) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == kCapacity) return false;
    slots_[tail & (kCapacity - 1)] = pending;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }
  bool pop(Pending* out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    *out = slots_[head & (kCapacity - 1)];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }
  [[nodiscard]] std::uint64_t size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::uint64_t kCapacity = std::uint64_t{1} << 17;
  std::vector<Pending> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
};

/// CPU placement. With 4 or more CPUs the send and receive threads each
/// own one CPU and the daemon thread (and any thread it starts) keeps the
/// rest, so the three busy threads never share a CPU and runs do not
/// differ by where the scheduler happened to put them.
struct Placement {
  bool pinned = false;
  cpu_set_t daemon{};
  cpu_set_t sender{};
  cpu_set_t receiver{};
};

Placement plan_placement() {
  Placement placement;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return placement;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 4) return placement;
  placement.pinned = true;
  CPU_ZERO(&placement.daemon);
  CPU_ZERO(&placement.sender);
  CPU_ZERO(&placement.receiver);
  for (std::size_t i = 0; i + 2 < cpus.size(); ++i) {
    CPU_SET(cpus[i], &placement.daemon);
  }
  CPU_SET(cpus[cpus.size() - 2], &placement.sender);
  CPU_SET(cpus[cpus.size() - 1], &placement.receiver);
  return placement;
}

void pin_current_thread(const Placement& placement, const cpu_set_t& set) {
  if (placement.pinned) {
    (void)::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
  }
}

/// Reads the little-endian integer of `bytes` bytes at `p`.
std::uint64_t get_le(const std::uint8_t* p, int bytes) {
  std::uint64_t value = 0;
  for (int i = bytes - 1; i >= 0; --i) value = value << 8 | p[i];
  return value;
}

struct Connection {
  net::Fd fd;
  PendingRing pending;
  /// Received bytes not yet parsed: [0, in_len). Envelopes are parsed and
  /// compared in place, so the receiver allocates nothing per response.
  std::vector<std::uint8_t> in = std::vector<std::uint8_t>(512 * 1024);
  std::size_t in_len = 0;
};

struct Phase {
  std::string name;
  double rate = 0.0;  ///< offered req/s; 0 = closed loop
  double seconds = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t full_hash_sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t inflight_max = 0;
  std::uint64_t backlog_at_end = 0;
  std::uint64_t start_ns = 0;
  std::vector<double> late_us;  ///< open loop: send time - due time
  std::uint64_t window_ns = kWindowNs;
  /// Replies received in each whole window of the phase.
  std::vector<std::uint64_t> window_answered;
  /// Their latencies, kept for open-loop phases only: a closed loop's reply
  /// times say nothing its rate does not, and storing them would make
  /// memory grow with throughput.
  std::vector<std::vector<double>> window_latency_us;

  /// Replies per second in the best window.
  [[nodiscard]] double best_window_rate() const {
    std::uint64_t best = 0;
    for (const std::uint64_t answered_in : window_answered) {
      best = std::max(best, answered_in);
    }
    return static_cast<double>(best) * 1e9 / static_cast<double>(window_ns);
  }
  /// The q-quantile latency of each window, in window order.
  [[nodiscard]] std::vector<double> window_quantiles(double q) const {
    std::vector<double> values;
    for (const auto& window : window_latency_us) {
      if (!window.empty()) values.push_back(quantile(window, q));
    }
    return values;
  }
  /// Median over windows of the q-quantile latency.
  [[nodiscard]] double window_quantile(double q) const {
    return median(window_quantiles(q));
  }
  /// The lowest q-quantile latency of any window.
  [[nodiscard]] double best_window_quantile(double q) const {
    const std::vector<double> values = window_quantiles(q);
    return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
  }
  /// The q-quantile over every latency of the phase's windows.
  [[nodiscard]] double pooled_quantile(double q) const {
    std::vector<double> all;
    for (const auto& window : window_latency_us) {
      all.insert(all.end(), window.begin(), window.end());
    }
    return quantile(std::move(all), q);
  }
  [[nodiscard]] std::size_t samples() const {
    std::size_t total = 0;
    for (const auto& window : window_latency_us) total += window.size();
    return total;
  }
};

class Replayer {
 public:
  Replayer(const ReplayTrace& trace, std::uint64_t seed,
           const Placement& placement)
      : trace_(trace), placement_(placement) {
    // A seeded shuffle of the captured sequence: the request mix is the
    // same in every stretch of the run.
    order_.resize(trace.sequence.size());
    for (std::size_t i = 0; i < order_.size(); ++i) {
      order_[i] = static_cast<std::uint32_t>(i);
    }
    util::Rng rng(seed ^ 0x5EEDF00DULL);
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.next_below(i)]);
    }
    full_hash_.resize(trace.requests.size());
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
      full_hash_[i] = trace.requests[i][0] ==
                      static_cast<std::uint8_t>(
                          sb::wire::FrameType::kFullHashRequest);
    }
  }

  bool connect(const std::string& spec, std::string* error) {
    const auto endpoint = net::parse_endpoint(spec, error);
    if (!endpoint) return false;
    for (auto& connection : connections_) {
      connection = std::make_unique<Connection>();
      connection->fd = net::connect_endpoint(*endpoint, error);
      if (!connection->fd.valid()) return false;
    }
    return true;
  }

  [[nodiscard]] bool broken() const { return broken_; }

  Phase run(std::string name, double rate, double seconds) {
    Phase phase;
    phase.name = std::move(name);
    phase.rate = rate;
    phase.seconds = seconds;
    phase.start_ns = obs::now_ns();
    const auto phase_ns = static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t end_ns = phase.start_ns + phase_ns;
    phase.window_ns = std::max<std::uint64_t>(1, std::min(kWindowNs, phase_ns));
    phase.window_answered.resize(phase_ns / phase.window_ns);
    if (rate > 0.0) {
      // Reserved up front so that memory does not depend on timing.
      phase.window_latency_us.resize(phase.window_answered.size());
      const auto per_window = static_cast<std::size_t>(
          rate * static_cast<double>(phase.window_ns) / 1e9 * 1.05) + 16;
      for (auto& window : phase.window_latency_us) window.reserve(per_window);
      phase.late_us.reserve(static_cast<std::size_t>(rate * seconds) + 16);
    }
    std::atomic<bool> sending_done{false};
    std::thread receiver([&] {
      pin_current_thread(placement_, placement_.receiver);
      receive(phase, sending_done);
    });

    if (rate <= 0.0) {
      while (!broken_ && obs::now_ns() < end_ns) {
        bool progressed = false;
        for (std::size_t c = 0; c < kConnections; ++c) {
          while (!broken_ && connections_[c]->pending.size() < kWindow) {
            send(c, obs::now_ns(), phase);
            progressed = true;
          }
        }
        if (!progressed) std::this_thread::yield();
      }
    } else {
      const double interval_ns = 1e9 / rate;
      for (std::uint64_t k = 0; !broken_; ++k) {
        const std::uint64_t due =
            phase.start_ns +
            static_cast<std::uint64_t>(static_cast<double>(k) * interval_ns);
        if (due >= end_ns) break;
        std::uint64_t now = obs::now_ns();
        if (due > now + 200'000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - 100'000));
        }
        while ((now = obs::now_ns()) < due) {
        }
        phase.late_us.push_back(static_cast<double>(now - due) / 1e3);
        send(k % kConnections, due, phase);
      }
    }
    phase.backlog_at_end = outstanding();
    sending_done.store(true, std::memory_order_release);
    receiver.join();
    phase.unanswered = outstanding();
    // Replies still owed would land in the next phase and be mismatched:
    // the stream is unusable from here on.
    if (phase.unanswered > 0) broken_ = true;
    return phase;
  }

 private:
  std::uint64_t outstanding() const {
    std::uint64_t total = 0;
    for (const auto& connection : connections_) {
      total += connection->pending.size();
    }
    return total;
  }

  void send(std::size_t c, std::uint64_t due_ns, Phase& phase) {
    const auto [tick, payload] = trace_.sequence[order_[cursor_]];
    cursor_ = (cursor_ + 1) % order_.size();
    Connection& connection = *connections_[c];
    while (!connection.pending.push({payload, tick, due_ns})) {
      std::this_thread::yield();
    }
    const std::vector<std::uint8_t>& frame = trace_.requests[payload];
    envelope_.resize(net::kEnvelopeHeaderBytes + frame.size());
    for (int i = 0; i < 4; ++i) {
      envelope_[i] = static_cast<std::uint8_t>(frame.size() >> (8 * i));
    }
    for (int i = 0; i < 8; ++i) {
      envelope_[4 + i] = static_cast<std::uint8_t>(tick >> (8 * i));
    }
    std::copy(frame.begin(), frame.end(),
              envelope_.begin() + net::kEnvelopeHeaderBytes);
    if (!net::write_all(connection.fd.get(), envelope_.data(),
                        envelope_.size())) {
      broken_ = true;
      return;
    }
    ++phase.sent;
    if (full_hash_[payload]) ++phase.full_hash_sent;
    phase.inflight_max = std::max(phase.inflight_max, outstanding());
  }

  void receive(Phase& phase, const std::atomic<bool>& sending_done) {
    std::array<pollfd, kConnections> fds{};
    for (std::size_t c = 0; c < kConnections; ++c) {
      fds[c] = {connections_[c]->fd.get(), POLLIN, 0};
    }
    std::uint64_t drain_deadline = 0;
    for (;;) {
      const bool done = sending_done.load(std::memory_order_acquire);
      if (done) {
        if (outstanding() == 0) return;
        if (drain_deadline == 0) drain_deadline = obs::now_ns() + kDrainNs;
        if (obs::now_ns() > drain_deadline) return;
      }
      if (::poll(fds.data(), fds.size(), 1) <= 0) continue;
      const std::uint64_t now = obs::now_ns();
      for (std::size_t c = 0; c < kConnections; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Connection& connection = *connections_[c];
        std::vector<std::uint8_t>& in = connection.in;
        const ssize_t got =
            ::recv(connection.fd.get(), in.data() + connection.in_len,
                   in.size() - connection.in_len, MSG_DONTWAIT);
        if (got <= 0) {
          if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          fds[c].fd = -1;  // closed by the daemon: what it owes is lost
          continue;
        }
        connection.in_len += static_cast<std::size_t>(got);
        std::size_t pos = 0;
        while (connection.in_len - pos >= net::kEnvelopeHeaderBytes) {
          const std::uint64_t length = get_le(in.data() + pos, 4);
          const std::size_t total = net::kEnvelopeHeaderBytes + length;
          if (length > net::kMaxPayloadBytes) {
            ++phase.mismatched;
            fds[c].fd = -1;
            break;
          }
          if (connection.in_len - pos < total) {
            if (total > in.size()) in.resize(total);
            break;
          }
          Pending pending;
          if (!connection.pending.pop(&pending)) {
            ++phase.mismatched;
          } else {
            const std::vector<std::uint8_t>& expected =
                trace_.responses[pending.payload];
            const std::uint8_t* payload =
                in.data() + pos + net::kEnvelopeHeaderBytes;
            if (get_le(in.data() + pos + 4, 8) != pending.tick ||
                length != expected.size() ||
                !std::equal(expected.begin(), expected.end(), payload)) {
              ++phase.mismatched;
            }
            ++phase.answered;
            const std::uint64_t window =
                (now - phase.start_ns) / phase.window_ns;
            if (window < phase.window_answered.size()) {
              ++phase.window_answered[window];
              if (!phase.window_latency_us.empty()) {
                phase.window_latency_us[window].push_back(
                    static_cast<double>(now - std::min(now, pending.due_ns)) /
                    1e3);
              }
            }
          }
          pos += total;
        }
        std::copy(in.begin() + static_cast<std::ptrdiff_t>(pos),
                  in.begin() + static_cast<std::ptrdiff_t>(connection.in_len),
                  in.begin());
        connection.in_len -= pos;
      }
    }
  }

  const ReplayTrace& trace_;
  const Placement& placement_;
  std::vector<std::uint32_t> order_;
  std::vector<bool> full_hash_;
  std::size_t cursor_ = 0;
  std::vector<std::uint8_t> envelope_;
  std::array<std::unique_ptr<Connection>, kConnections> connections_;
  std::atomic<bool> broken_{false};
};

void print_phase(const Phase& phase) {
  std::fprintf(stderr,
               "%-12s offered %8.0f req/s: sent %llu, answered %llu "
               "(best window %.0f req/s), p50 %.1f us, p99 %.1f us "
               "(window medians %.1f / %.1f), late p99 %.1f us, "
               "in-flight max %llu, unanswered %llu, mismatched %llu\n",
               phase.name.c_str(), phase.rate,
               static_cast<unsigned long long>(phase.sent),
               static_cast<unsigned long long>(phase.answered),
               phase.best_window_rate(), phase.pooled_quantile(0.50),
               phase.pooled_quantile(0.99), phase.window_quantile(0.50),
               phase.window_quantile(0.99), quantile(phase.late_us, 0.99),
               static_cast<unsigned long long>(phase.inflight_max),
               static_cast<unsigned long long>(phase.unanswered),
               static_cast<unsigned long long>(phase.mismatched));
}

void write_phase_spans(const std::string& path,
                       const std::vector<Phase>& phases) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr || phases.empty()) {
    if (out != nullptr) std::fclose(out);
    return;
  }
  const std::uint64_t origin = phases.front().start_ns;
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& phase = phases[i];
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"offered_rps\": %.1f, \"sent\": %llu, \"answered\": %llu, "
                 "\"p50_us\": %.3f, \"p99_us\": %.3f, \"late_p99_us\": %.3f, "
                 "\"inflight_max\": %llu}}",
                 i > 0 ? ",\n" : "", phase.name.c_str(),
                 static_cast<double>(phase.start_ns - origin) / 1e3,
                 phase.seconds * 1e6, i + 1, phase.rate,
                 static_cast<unsigned long long>(phase.sent),
                 static_cast<unsigned long long>(phase.answered),
                 phase.pooled_quantile(0.50), phase.pooled_quantile(0.99),
                 quantile(phase.late_us, 0.99),
                 static_cast<unsigned long long>(phase.inflight_max));
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
}

}  // namespace

void run_replay(const Workload& workload, const Options& opts,
                Result& result) {
  net::ignore_sigpipe();
  std::string text;
  std::string error;
  if (!sim::read_file(opts.trace_in, &text, &error)) {
    result.fail("replay: " + error);
    return;
  }
  const auto trace =
      decode_trace(std::vector<std::uint8_t>(text.begin(), text.end()), &error);
  if (!trace || trace->sequence.empty()) {
    result.fail("replay: " + (trace ? std::string("empty trace") : error));
    return;
  }

  // The server: a zero-user engine of the workload's scenario, so its
  // lists, chunk numbers and v4 states are exactly what the fleet saw.
  sim::SimConfig server_config = workload.scenario.config;
  server_config.num_users = 0;
  server_config.collect_metrics = false;
  std::unique_ptr<sim::Engine> server_engine;
  std::unique_ptr<net::Daemon> daemon;
  std::vector<double> setups;
  std::vector<double> timed_setups;
  for (int i = 0; i < kServerSetups; ++i) {
    daemon.reset();
    server_engine.reset();
    const double slowdown = host_slowdown();
    const auto start = Clock::now();
    server_engine = std::make_unique<sim::Engine>(server_config);
    daemon = std::make_unique<net::Daemon>(server_engine->server());
    if (!daemon->listen(opts.endpoint, &error)) {
      result.fail("replay: listen " + opts.endpoint + ": " + error);
      return;
    }
    timed_setups.push_back(seconds_since(start));
    setups.push_back(timed_setups.back() / slowdown);
  }
  sim::CountingSink daemon_log;
  server_engine->attach_sink(&daemon_log, /*retain_in_memory=*/false);

  std::atomic<bool> stop{false};
  const Placement placement = plan_placement();
  std::thread daemon_thread([&] {
    pin_current_thread(placement, placement.daemon);
    while (!stop.load(std::memory_order_relaxed)) daemon->poll_once(5);
  });

  const std::uint64_t seed = opts.seed.value_or(workload.scenario.config.seed);
  Replayer replayer(*trace, seed, placement);
  pin_current_thread(placement, placement.sender);
  std::vector<Phase> phases;
  // slowdowns[i] is read just before phase i and slowdowns[i + 1] after it.
  std::vector<double> slowdowns{host_slowdown()};
  // Peak RSS through the closed-loop phase: with at most kWindow requests
  // in flight per connection the daemon's buffers are bounded, whereas in
  // the open loop they grow with however long the host stalls the reader.
  double closed_loop_peak_rss = 0.0;
  if (!replayer.connect(daemon->listen_endpoints().front(), &error)) {
    result.fail("replay: connect: " + error);
  } else {
    const double t = opts.seconds;
    std::vector<std::pair<std::string, std::pair<double, double>>> plan;
    if (opts.traced) {
      plan = {{"saturation", {0.0, 0.2 * t}}, {"open_loop", {opts.rate, 0.4 * t}}};
      for (std::size_t r = 0; r < opts.rungs.size(); ++r) {
        plan.push_back({"rung." + std::to_string(r + 1),
                        {opts.rungs[r], 0.4 * t / static_cast<double>(
                                                  opts.rungs.size())}});
      }
    } else {
      plan = {{"saturation", {0.0, 0.3 * t}}, {"open_loop", {opts.rate, 0.7 * t}}};
    }
    for (const auto& [name, spec] : plan) {
      if (replayer.broken()) break;
      phases.push_back(replayer.run(name, spec.first, spec.second));
      print_phase(phases.back());
      slowdowns.push_back(host_slowdown());
      if (phases.size() == 1) closed_loop_peak_rss = peak_rss_mib();
    }
  }

  stop.store(true, std::memory_order_relaxed);
  daemon_thread.join();
  daemon->shutdown(/*drain_ms=*/1000);
  if (opts.endpoint.rfind("unix:", 0) == 0) {
    std::remove(opts.endpoint.substr(5).c_str());
  }

  std::uint64_t full_hash_sent = 0;
  std::uint64_t mismatched = 0;
  for (const Phase& phase : phases) {
    result.attempted += phase.sent;
    result.failed += phase.unanswered;
    full_hash_sent += phase.full_hash_sent;
    mismatched += phase.mismatched;
  }
  if (mismatched > 0) {
    result.fail("replay: " + std::to_string(mismatched) +
                " responses differ from the captured ones");
  }
  if (daemon->stats().decode_errors > 0) {
    result.fail("replay: daemon decode_errors = " +
                std::to_string(daemon->stats().decode_errors));
  }
  if (replayer.broken() || phases.size() < 2) {
    result.fail("replay: the request stream broke off");
  } else if (daemon_log.entries() != full_hash_sent) {
    result.fail("replay: daemon logged " +
                std::to_string(daemon_log.entries()) + " queries for " +
                std::to_string(full_hash_sent) + " full-hash requests");
  }
  if (phases.size() < 2) return;

  const Phase& saturation = phases[0];
  const Phase& open_loop = phases[1];
  std::fprintf(stderr, "open loop: %zu latency samples at %.0f req/s\n",
               open_loop.samples(), open_loop.rate);
  if (!opts.traced) {
    // The saturated daemon and generator are CPU-bound, so their rate is
    // scaled to the reference clock by the faster reading around the
    // phase. The open-loop latency is not: at a fixed offered rate the
    // threads mostly wait, and its p50 is set by how fast the host wakes
    // them, which does not follow the clock.
    const double slowdown = std::min(slowdowns[0], slowdowns[1]);
    const double throughput = saturation.best_window_rate();
    result.metric("throughput", throughput * slowdown, "ops/s");
    result.metric("p50_us", open_loop.best_window_quantile(0.50), "us");
    result.metric("setup_s", median(setups), "s");
    result.metric("peak_rss_mb", closed_loop_peak_rss, "MiB");
    std::fprintf(stderr,
                 "host clock slowdown %.3f around saturation; as timed: "
                 "throughput %.0f req/s, setup %.4f s\n",
                 slowdown, throughput, median(timed_setups));
    return;
  }

  obs::Histogram serve;
  std::uint64_t update_requests = 0;
  for (std::size_t c = 0; c < obs::kChannelCount; ++c) {
    serve.merge_from(daemon->transport_obs().channels[c].serve_ns);
  }
  update_requests = daemon->transport_stats().update_requests +
                    daemon->transport_stats().v4_update_requests;
  result.metric("tail.p99_us", open_loop.window_quantile(0.99), "us");
  result.metric("sb.serve_us_p50",
                static_cast<double>(serve.quantile(0.50)) / 1e3, "us");
  result.metric("sb.serve_us_p99",
                static_cast<double>(serve.quantile(0.99)) / 1e3, "us");
  result.metric(
      "sb.encode_cache_hit_ratio",
      update_requests > 0
          ? static_cast<double>(server_engine->server().update_encode_cache_hits()) /
                static_cast<double>(update_requests)
          : 0.0,
      "fraction");

  double knee = 0.0;
  for (std::size_t i = 2; i < phases.size(); ++i) {
    const Phase& rung = phases[i];
    const bool sustained =
        rung.pooled_quantile(0.99) <= kKneeP99Us &&
        rung.unanswered == 0 &&
        static_cast<double>(rung.backlog_at_end) <=
            std::max(64.0, rung.rate * 0.005);
    if (sustained) knee = std::max(knee, rung.rate);
  }
  std::fprintf(stderr,
               "daemon: knee %.0f req/s (p99 <= %.0f us), generator late p99 "
               "%.1f us vs open-loop p99 %.1f us, in-flight max %llu, "
               "decode_errors %llu\n",
               knee, kKneeP99Us, quantile(open_loop.late_us, 0.99),
               open_loop.window_quantile(0.99),
               static_cast<unsigned long long>(open_loop.inflight_max),
               static_cast<unsigned long long>(daemon->stats().decode_errors));
  if (!opts.trace_out.empty()) write_phase_spans(opts.trace_out, phases);
}

}  // namespace sbp::benchsuite
