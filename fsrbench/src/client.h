// The benchmark's side of the socket: spawning and stopping fsr_serve,
// and pipelined JSON-lines connections to it.
#ifndef FSRBENCH_CLIENT_H
#define FSRBENCH_CLIENT_H

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace fsrbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One fsr_serve process listening on an ephemeral loopback port. The
/// destructor kills and reaps a server that was not stopped.
class ServerProcess {
 public:
  /// Spawns `binary` with `args` plus `--listen 127.0.0.1:0`, its stderr
  /// going to `log_path`, and waits for the port announcement. Throws on
  /// failure or after 30 s without one.
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// SIGTERM (graceful drain), then reap. Returns the peak resident set in
  /// MiB as the kernel accounted it (ru_maxrss, the VmHWM high-water mark)
  /// and whether the server exited cleanly.
  struct Exit {
    double peak_rss_mb = 0;
    bool clean = false;
  };
  Exit stop();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// A non-blocking loopback connection with buffered, line-framed I/O. A
/// connection the peer closed or reset is closed here and marked dead: it
/// takes no more sends, and what it had in flight stays unanswered.
class Conn {
 public:
  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// The socket, or -1 once dead (poll() skips a negative fd).
  int fd() const noexcept { return fd_; }
  bool alive() const noexcept { return fd_ >= 0; }
  /// Queues `bytes` and writes as much as the socket takes now; drops them
  /// on a dead connection.
  void send(const std::string& bytes);
  /// Writes queued bytes; returns true when none remain.
  bool flush();
  bool pending_output() const noexcept { return alive() && out_offset_ < out_.size(); }
  /// Reads what is available and calls `on_line` for each complete line
  /// (without its newline). Returns false once the connection is dead.
  bool receive(const std::function<void(const std::string&)>& on_line);

 private:
  void close_dead();

  int fd_ = -1;
  std::string out_;
  std::size_t out_offset_ = 0;
  std::string in_;
};

/// The client id a response line echoes (`{"id": N, ...`), or UINT64_MAX.
std::uint64_t response_id(const std::string& line);

}  // namespace fsrbench

#endif  // FSRBENCH_CLIENT_H
