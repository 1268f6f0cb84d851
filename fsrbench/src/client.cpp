#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace fsrbench {

namespace {

std::runtime_error sys_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& log_path) {
  std::vector<std::string> argv_storage = {binary, "--listen", "127.0.0.1:0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  // stderr goes to a file, not a pipe: nothing then has to keep draining
  // it for the server's whole life.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int status = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (status != 0) {
    errno = status;
    throw sys_error("spawn " + binary);
  }

  const std::string marker = "listening on 127.0.0.1:";
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (port_ == 0) {
    std::ifstream log(log_path);
    std::stringstream text;
    text << log.rdbuf();
    const std::string content = text.str();
    const std::size_t at = content.find(marker);
    if (at != std::string::npos &&
        content.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(
          std::stoul(content.substr(at + marker.size())));
      break;
    }
    int wstatus = 0;
    if (waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("fsr_serve exited before listening: " + content);
    }
    if (Clock::now() > deadline) throw std::runtime_error("fsr_serve never listened");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int wstatus = 0;
    waitpid(pid_, &wstatus, 0);
  }
}

ServerProcess::Exit ServerProcess::stop() {
  Exit exit;
  if (pid_ <= 0) return exit;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  int wstatus = 0;
  struct rusage usage {};
  while (true) {
    const pid_t done = wait4(pid_, &wstatus, WNOHANG, &usage);
    if (done == pid_) break;
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      wait4(pid_, &wstatus, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  exit.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  exit.clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  return exit;
}

Conn::Conn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw sys_error("socket");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0) {
    const auto error = sys_error("connect");
    ::close(fd_);
    throw error;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::close_dead() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void Conn::send(const std::string& bytes) {
  if (!alive()) return;
  if (out_offset_ == out_.size()) {
    out_.clear();
    out_offset_ = 0;
  }
  out_ += bytes;
  flush();
}

bool Conn::flush() {
  while (alive() && out_offset_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_offset_,
                             out_.size() - out_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      out_offset_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    close_dead();  // EPIPE, ECONNRESET: the server is gone
  }
  return true;
}

bool Conn::receive(const std::function<void(const std::string&)>& on_line) {
  char buffer[65536];
  bool open = alive();
  while (open) {
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n > 0) {
      in_.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    open = false;  // orderly close, or ECONNRESET
  }
  std::size_t start = 0;
  for (std::size_t nl = in_.find('\n'); nl != std::string::npos; nl = in_.find('\n', start)) {
    on_line(in_.substr(start, nl - start));
    start = nl + 1;
  }
  in_.erase(0, start);
  if (!open) close_dead();
  return open;
}

std::uint64_t response_id(const std::string& line) {
  static const char prefix[] = "{\"id\": ";
  if (line.compare(0, sizeof prefix - 1, prefix) != 0) return UINT64_MAX;
  std::uint64_t id = 0;
  std::size_t at = sizeof prefix - 1;
  if (at >= line.size() || line[at] < '0' || line[at] > '9') return UINT64_MAX;
  while (at < line.size() && line[at] >= '0' && line[at] <= '9') {
    id = id * 10 + static_cast<std::uint64_t>(line[at] - '0');
    ++at;
  }
  return id;
}

}  // namespace fsrbench
