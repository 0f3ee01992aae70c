// POSIX socket plumbing for the network layer (src/net).
//
// Everything the daemon and the socket transport need from the OS, wrapped
// once: an RAII file descriptor, endpoint-string parsing ("tcp:HOST:PORT"
// and "unix:/PATH"), listen/connect helpers for both address families, and
// EINTR-retrying exact-count blocking IO for the synchronous client side.
// No other file in the repo touches <sys/socket.h>.
//
// Error reporting: helpers return an invalid Fd (or false) and write a
// one-line description into *error -- callers print it and exit/fail; no
// exceptions, matching the rest of the codebase.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sbp::net {

/// RAII owner of a POSIX file descriptor. Move-only; closes on
/// destruction. EINTR on close is ignored (the fd is gone either way on
/// Linux).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// A parsed listen/connect target. Exactly two forms are accepted:
///   tcp:HOST:PORT   -- IPv4 dotted quad or "localhost"; PORT 0 = ephemeral
///   unix:/PATH      -- filesystem Unix-domain socket
struct Endpoint {
  bool is_unix = false;
  std::string host;         ///< tcp only
  std::uint16_t port = 0;   ///< tcp only
  std::string path;         ///< unix only

  /// Canonical "tcp:host:port" / "unix:/path" spelling.
  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] std::optional<Endpoint> parse_endpoint(std::string_view spec,
                                                     std::string* error);

/// Creates a listening socket (non-blocking, SO_REUSEADDR for tcp; a
/// pre-existing unix socket file is unlinked first -- the daemon owns its
/// path). Invalid Fd + *error on failure.
[[nodiscard]] Fd listen_endpoint(const Endpoint& endpoint, std::string* error);

/// Blocking connect to the endpoint. Invalid Fd + *error on failure.
[[nodiscard]] Fd connect_endpoint(const Endpoint& endpoint,
                                  std::string* error);

/// The port a tcp listener actually bound (resolves port 0); 0 on error.
[[nodiscard]] std::uint16_t local_port(int fd);

[[nodiscard]] bool set_nonblocking(int fd, std::string* error);

/// Writes exactly `n` bytes, retrying on EINTR and partial writes.
/// False on any other error (including EPIPE -- callers must have SIGPIPE
/// ignored or the process dies before seeing it).
[[nodiscard]] bool write_all(int fd, const std::uint8_t* data, std::size_t n);

/// Reads exactly `n` bytes, retrying on EINTR and short reads. False on
/// EOF or error.
[[nodiscard]] bool read_exact(int fd, std::uint8_t* data, std::size_t n);

/// Installs SIG_IGN for SIGPIPE process-wide so a peer closing its socket
/// mid-write surfaces as an EPIPE errno, not a process kill. Idempotent;
/// every networked binary calls it first thing in main().
void ignore_sigpipe();

}  // namespace sbp::net
