#include "net/daemon.hpp"

#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace sbp::net {

bool Daemon::listen(const std::string& endpoint_spec, std::string* error) {
  const auto endpoint = parse_endpoint(endpoint_spec, error);
  if (!endpoint) return false;
  Fd fd = listen_endpoint(*endpoint, error);
  if (!fd.valid()) return false;

  Endpoint resolved = *endpoint;
  if (!resolved.is_unix && resolved.port == 0) {
    resolved.port = local_port(fd.get());
  }
  listen_endpoints_.push_back(resolved.to_string());
  listeners_.push_back(std::move(fd));
  return true;
}

std::size_t Daemon::poll_once(int timeout_ms) {
  // Snapshot the connection count: accept_ready() grows connections_ mid-
  // cycle, and the new entries have no pollfd slot until the next cycle.
  const std::size_t polled_connections = connections_.size();
  std::vector<pollfd> fds;
  fds.reserve(listeners_.size() + polled_connections);
  for (const auto& listener : listeners_) {
    fds.push_back({listener.get(), POLLIN, 0});
  }
  for (std::size_t c = 0; c < polled_connections; ++c) {
    const Connection& connection = *connections_[c];
    short events = POLLIN;
    if (connection.out_offset < connection.out.size()) events |= POLLOUT;
    fds.push_back({connection.fd.get(), events, 0});
  }
  if (fds.empty()) return 0;

  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) return 0;  // timeout, or EINTR treated as one

  const std::uint64_t served_before = stats_.frames_served;
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    if ((fds[i].revents & POLLIN) != 0) accept_ready(i);
  }
  for (std::size_t c = 0; c < polled_connections; ++c) {
    const short revents = fds[listeners_.size() + c].revents;
    Connection& connection = *connections_[c];
    if ((revents & (POLLERR | POLLNVAL)) != 0) {
      connection.broken = true;
      continue;
    }
    if ((revents & POLLOUT) != 0) flush(connection);
    if ((revents & (POLLIN | POLLHUP)) != 0) read_ready(connection);
  }
  close_broken();
  return static_cast<std::size_t>(stats_.frames_served - served_before);
}

void Daemon::accept_ready(std::size_t listener_index) {
  for (;;) {
    const int raw = ::accept(listeners_[listener_index].get(), nullptr,
                             nullptr);
    if (raw < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient accept error: next poll
    }
    Fd fd(raw);
    std::string error;
    if (!set_nonblocking(fd.get(), &error)) continue;  // drop this one
    auto connection = std::make_unique<Connection>();
    connection->fd = std::move(fd);
    connections_.push_back(std::move(connection));
    ++stats_.connections_accepted;
  }
}

void Daemon::read_ready(Connection& connection) {
  std::uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t got = ::read(connection.fd.get(), buffer, sizeof(buffer));
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      connection.broken = true;
      return;
    }
    if (got == 0) {  // peer closed; anything buffered is a truncated frame
      connection.broken = true;
      return;
    }
    connection.decoder.feed(buffer, static_cast<std::size_t>(got));
    if (static_cast<std::size_t>(got) < sizeof(buffer)) break;
  }

  while (auto envelope = connection.decoder.next()) {
    if (!serve_envelope(connection, *envelope)) {
      ++stats_.decode_errors;
      connection.broken = true;
      return;
    }
  }
  if (connection.decoder.error()) {
    ++stats_.decode_errors;
    connection.broken = true;
    return;
  }
  flush(connection);
}

bool Daemon::serve_envelope(Connection& connection,
                            const Envelope& envelope) {
  const std::uint64_t start_ns = obs::now_ns();
  const sb::ResponseFrame response =
      server_.serve_frame(envelope.payload, envelope.tick);
  if (response == nullptr) return false;  // not a decodable request

  const std::size_t request_bytes = envelope.payload.size();
  const sb::RequestChannel& channel =
      *sb::request_channel(envelope.payload[0]);
  channel.count_request(wire_, request_bytes);
  channel.count_response(wire_, response->size());
  obs_.channel(channel.channel)
      .record(request_bytes, response->size(), obs::now_ns() - start_ns);
  ++stats_.frames_served;

  append_envelope(connection.out, envelope.tick, *response);
  return true;
}

void Daemon::flush(Connection& connection) {
  while (connection.out_offset < connection.out.size()) {
    const ssize_t written = ::send(
        connection.fd.get(), connection.out.data() + connection.out_offset,
        connection.out.size() - connection.out_offset, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // POLLOUT later
      connection.broken = true;  // EPIPE/ECONNRESET: peer is gone
      return;
    }
    connection.out_offset += static_cast<std::size_t>(written);
  }
  connection.out.clear();
  connection.out_offset = 0;
}

void Daemon::close_broken() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->broken) {
      it = connections_.erase(it);
      ++stats_.connections_closed;
    } else {
      ++it;
    }
  }
}

void Daemon::shutdown(int drain_ms) {
  listeners_.clear();
  listen_endpoints_.clear();

  // Flush whatever responses are still queued, bounded in wall time so a
  // stalled peer cannot wedge the exit.
  const std::uint64_t deadline_ns =
      obs::now_ns() + static_cast<std::uint64_t>(drain_ms) * 1'000'000ULL;
  for (;;) {
    bool pending = false;
    for (const auto& connection : connections_) {
      if (!connection->broken &&
          connection->out_offset < connection->out.size()) {
        pending = true;
        break;
      }
    }
    if (!pending || obs::now_ns() >= deadline_ns) break;

    std::vector<pollfd> fds;
    for (const auto& connection : connections_) {
      if (!connection->broken &&
          connection->out_offset < connection->out.size()) {
        fds.push_back({connection->fd.get(), POLLOUT, 0});
      }
    }
    if (::poll(fds.data(), fds.size(), 50) <= 0) continue;
    for (auto& connection : connections_) {
      if (!connection->broken &&
          connection->out_offset < connection->out.size()) {
        flush(*connection);
      }
    }
    close_broken();
  }

  stats_.connections_closed += connections_.size();
  connections_.clear();
}

obs::Snapshot Daemon::snapshot() const {
  obs::Snapshot snapshot;
  snapshot.enabled = true;
  snapshot.threads_used = 1;  // the reactor is single-threaded by design
  snapshot.ticks = 0;         // no tick loop; phases stay all-zero
  snapshot.pool.workers.resize(1);
  snapshot.transport.merge_from(obs_);

  util::append_counters(snapshot.counters, stats_);
  snapshot.counters.emplace_back("update_encode_cache_hits",
                                 server_.update_encode_cache_hits());
  snapshot.counters.emplace_back("update_serve_locked",
                                 server_.update_serve_lock().acquisitions);
  return snapshot;
}

}  // namespace sbp::net
