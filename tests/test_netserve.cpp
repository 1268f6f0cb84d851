// Tests for fsr::netserve — the socket front-end of the JSON-lines wire
// protocol: line framing under adversarial chunking, consistent-hash
// shard routing, the fd-free per-connection protocol machine (pipelining,
// client ids, barriers, backpressure), and socket round trips over TCP
// and Unix-domain listeners including graceful drain.
//
// Runs under the `service` ctest label (it spins up real worker pools).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "api/request.h"
#include "api/service.h"
#include "api/shard_router.h"
#include "api/wire.h"
#include "netserve/connection.h"
#include "netserve/framing.h"
#include "netserve/server.h"
#include "obs/metrics.h"

namespace fsr::netserve {
namespace {

// ---------------------------------------------------------- line framing --

std::vector<std::string> lines_of(std::vector<Frame> frames) {
  std::vector<std::string> lines;
  for (Frame& frame : frames) lines.push_back(std::move(frame.line));
  return lines;
}

TEST(LineFramer, ReassemblesLinesSplitAcrossArbitraryChunks) {
  LineFramer framer;
  EXPECT_TRUE(framer.feed("{\"a").empty());
  EXPECT_TRUE(framer.midline());
  const auto first = framer.feed("bc\"}\nxy");
  ASSERT_EQ(lines_of(first), std::vector<std::string>{"{\"abc\"}"});
  const auto second = framer.feed("z\n");
  ASSERT_EQ(lines_of(second), std::vector<std::string>{"xyz"});
  EXPECT_FALSE(framer.midline());
}

TEST(LineFramer, ManyLinesInOneChunkComeOutInOrder) {
  LineFramer framer;
  const auto frames = framer.feed("one\ntwo\n\nthree\n");
  EXPECT_EQ(lines_of(frames),
            (std::vector<std::string>{"one", "two", "", "three"}));
}

TEST(LineFramer, FinishDeliversTheUnterminatedFinalLine) {
  // std::getline also yields a final line with no '\n'; EOF on a socket
  // must behave the same for stdin-mode byte parity.
  LineFramer framer;
  EXPECT_TRUE(framer.feed("tail-without-newline").empty());
  const auto frames = framer.finish();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].line, "tail-without-newline");
  EXPECT_FALSE(frames[0].oversized);
  EXPECT_TRUE(framer.finish().empty());  // idempotent
}

TEST(LineFramer, CarriageReturnsAreKeptForGetlineParity) {
  LineFramer framer;
  const auto frames = framer.feed("abc\r\n");
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].line, "abc\r");
}

TEST(LineFramer, OversizedLineIsDroppedUnbufferedAndFlaggedOnce) {
  LineFramer framer(/*max_line_bytes=*/8);
  // The over-limit line arrives in many chunks; the framer must not
  // accumulate it (discard mode), and must still frame the next line.
  EXPECT_TRUE(framer.feed("0123456789").empty());
  EXPECT_TRUE(framer.midline());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(framer.feed("xxxxxxxxxx").empty());
  const auto frames = framer.feed("tail\nok\n");
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].oversized);
  EXPECT_TRUE(frames[0].line.empty());
  EXPECT_FALSE(frames[1].oversized);
  EXPECT_EQ(frames[1].line, "ok");
}

TEST(LineFramer, OversizedFinalLineSurfacesThroughFinish) {
  LineFramer framer(/*max_line_bytes=*/4);
  EXPECT_TRUE(framer.feed("0123456789").empty());
  const auto frames = framer.finish();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].oversized);
}

// --------------------------------------------------------- shard routing --

using api::ShardRouter;

TEST(ShardRouter, MappingIsAPureFunctionOfTheConfiguration) {
  const ShardRouter a(8), b(8);
  for (int i = 0; i < 512; ++i) {
    const std::string key = "fingerprint-" + std::to_string(i);
    EXPECT_EQ(a.shard_of(key), b.shard_of(key));
  }
  EXPECT_LT(a.shard_of(""), 8u);  // total: the empty fingerprint maps too
}

TEST(ShardRouter, EveryShardReceivesSomeKeys) {
  const ShardRouter router(8);
  std::set<std::size_t> seen;
  for (int i = 0; i < 4096; ++i) {
    seen.insert(router.shard_of("key-" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ShardRouter, GrowingTheRingRemapsOnlyAFewKeys) {
  // The consistent-hash property the warm-cache story leans on: going
  // from 8 to 9 shards should move about 1/9 of the keys, not all of
  // them (hash-mod would remap ~8/9).
  const ShardRouter before(8), after(9);
  int moved = 0;
  const int total = 4096;
  for (int i = 0; i < total; ++i) {
    const std::string key = "fingerprint-" + std::to_string(i);
    if (before.shard_of(key) != after.shard_of(key)) ++moved;
  }
  EXPECT_LT(moved, total / 3);  // ~11% expected; fail well before "most"
  EXPECT_GT(moved, 0);          // the new shard must take SOMETHING
}

// ------------------------------------------- the fd-free protocol machine --

/// Harness around a Connection: captures submissions, fabricates
/// completions, and exposes the rendered output stream.
struct ConnHarness {
  explicit ConnHarness(ConnectionLimits limits = {})
      : conn(1, {}, limits, [this](std::uint64_t slot, api::Request request) {
          submitted.push_back({slot, std::move(request)});
        }) {}

  /// Completes a submitted slot with a response that renders to
  /// recognizable bytes (the error field doubles as a payload marker).
  void complete(std::uint64_t slot, const std::string& marker) {
    api::Response response;
    response.error = marker;
    conn.on_response(slot, std::move(response));
  }

  /// Drains and returns the output buffer as whole lines.
  std::vector<std::string> take_lines() {
    std::vector<std::string> lines;
    std::string buffered = conn.output();
    conn.consume_output(buffered.size());
    std::size_t start = 0;
    for (std::size_t i = 0; i < buffered.size(); ++i) {
      if (buffered[i] == '\n') {
        lines.push_back(buffered.substr(start, i - start));
        start = i + 1;
      }
    }
    EXPECT_EQ(start, buffered.size());  // output is always whole lines
    return lines;
  }

  std::vector<std::pair<std::uint64_t, api::Request>> submitted;
  Connection conn;
};

TEST(Connection, BlankLinesAreSkippedButStillCountForLineNumbers) {
  ConnHarness h;
  h.conn.feed("\n \t\r\n{not json\n");
  EXPECT_TRUE(h.submitted.empty());  // the bad line is answered in-band
  const auto lines = h.take_lines();
  ASSERT_EQ(lines.size(), 1u);
  // Two blank lines precede it, so the stdin-style prefix says line 3.
  EXPECT_NE(lines[0].find("line 3: "), std::string::npos);
  EXPECT_NE(lines[0].find("\"id\": 0"), std::string::npos);
}

TEST(Connection, IdlessResponsesKeepRequestOrderUnderReversedCompletion) {
  ConnHarness h;
  h.conn.feed("{\"kind\": \"analyze-safety\", \"gadget\": \"good\"}\n");
  h.conn.feed("{\"kind\": \"analyze-safety\", \"gadget\": \"bad\"}\n");
  ASSERT_EQ(h.submitted.size(), 2u);

  h.complete(1, "second");  // finishes first...
  EXPECT_TRUE(h.conn.output().empty());  // ...but must wait for slot 0
  h.complete(0, "first");
  const auto lines = h.take_lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("first"), std::string::npos);
  EXPECT_NE(lines[0].find("\"id\": 0"), std::string::npos);
  EXPECT_NE(lines[1].find("second"), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\": 1"), std::string::npos);
}

TEST(Connection, ClientIdsOptIntoOutOfOrderEmissionAndAreEchoed) {
  ConnHarness h;
  h.conn.feed(
      "{\"kind\": \"analyze-safety\", \"gadget\": \"good\", \"id\": 7}\n"
      "{\"kind\": \"analyze-safety\", \"gadget\": \"bad\", \"id\": 3}\n");
  ASSERT_EQ(h.submitted.size(), 2u);

  h.complete(1, "second");  // id-carrying: emitted immediately
  auto lines = h.take_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"id\": 3"), std::string::npos);

  h.complete(0, "first");
  lines = h.take_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"id\": 7"), std::string::npos);
}

TEST(Connection, IdCarryingSlotsNeverBlockIdlessOrdering) {
  ConnHarness h;
  h.conn.feed(
      "{\"kind\": \"analyze-safety\", \"gadget\": \"good\", \"id\": 9}\n"
      "{\"kind\": \"analyze-safety\", \"gadget\": \"bad\"}\n");
  ASSERT_EQ(h.submitted.size(), 2u);

  // The id-less slot 1 completes while the id-carrying slot 0 is still in
  // flight: slot 0 is transparent to id-less ordering, so slot 1 emits.
  h.complete(1, "idless");
  const auto lines = h.take_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("idless"), std::string::npos);
  EXPECT_NE(lines[0].find("\"id\": 1"), std::string::npos);
}

TEST(Connection, MalformedClientIdIsAnsweredInBandNotDropped) {
  ConnHarness h;
  h.conn.feed("{\"kind\": \"stats\", \"id\": -4}\n");
  h.conn.feed("{\"kind\": \"stats\", \"id\": 1.5}\n");
  EXPECT_TRUE(h.submitted.empty());  // neither line reached the service
  const auto lines = h.take_lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("line 1: "), std::string::npos);
  EXPECT_NE(lines[1].find("line 2: "), std::string::npos);
}

TEST(Connection, EachAcceptedLineIsParsedOnce) {
  // The client id, the request decode and the kind attribution all read
  // one tree: N id-carrying lines cost N JSON parses, not 2N.
  obs::Counter& parses = obs::registry().counter("api.json.parses");
  ConnHarness h;
  const std::uint64_t before = parses.value();
  constexpr std::uint64_t k_lines = 5;
  for (std::uint64_t i = 0; i < k_lines; ++i) {
    h.conn.feed("{\"kind\": \"analyze-safety\", \"gadget\": \"good\", "
                "\"id\": " + std::to_string(i) + "}\n");
  }
  EXPECT_EQ(h.submitted.size(), k_lines);
  EXPECT_EQ(parses.value() - before, k_lines);
}

TEST(Connection, OversizedLineGetsAnErrorAndTheConnectionKeepsWorking) {
  ConnectionLimits limits;
  limits.max_line_bytes = 32;
  ConnHarness h(limits);
  h.conn.feed(std::string(100, 'x') + "\n{\"kind\": \"stats\"}\n");
  ASSERT_EQ(h.submitted.size(), 1u);  // the stats line went through
  auto lines = h.take_lines();        // the oversized answer needs no slot
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("exceeds 32-byte limit"), std::string::npos);
  EXPECT_NE(lines[0].find("line 1: "), std::string::npos);

  h.complete(1, "stats-answer");
  lines = h.take_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"id\": 1"), std::string::npos);
}

TEST(Connection, StatsIsABarrierThatWaitsForEarlierInflightLines) {
  ConnHarness h;
  h.conn.feed(
      "{\"kind\": \"analyze-safety\", \"gadget\": \"good\"}\n"
      "{\"kind\": \"stats\"}\n");
  ASSERT_EQ(h.submitted.size(), 1u);  // the barrier is held back

  h.complete(0, "work");
  ASSERT_EQ(h.submitted.size(), 2u);  // now the stats line is submitted
  EXPECT_TRUE(std::holds_alternative<api::StatsRequest>(
      h.submitted[1].second));
}

TEST(Connection, InflightCapPausesReadsAndCountsAStall) {
  ConnectionLimits limits;
  limits.max_inflight = 2;
  obs::Counter& stalls = obs::registry().counter("net.backpressure_stalls");
  const std::uint64_t before = stalls.value();

  ConnHarness h(limits);
  EXPECT_TRUE(h.conn.wants_read());
  h.conn.feed(
      "{\"kind\": \"analyze-safety\", \"gadget\": \"good\"}\n"
      "{\"kind\": \"analyze-safety\", \"gadget\": \"bad\"}\n");
  EXPECT_FALSE(h.conn.wants_read());  // 2 open slots == the cap
  EXPECT_EQ(stalls.value(), before + 1);

  h.complete(0, "a");
  h.complete(1, "b");
  h.take_lines();
  EXPECT_TRUE(h.conn.wants_read());
}

TEST(Connection, UndrainedOutputPausesReadsAndHoldsSubmissions) {
  ConnectionLimits limits;
  limits.max_output_bytes = 16;  // any one response line overflows this
  ConnHarness h(limits);
  h.conn.feed(
      "{\"kind\": \"analyze-safety\", \"gadget\": \"good\"}\n"
      "{\"kind\": \"analyze-safety\", \"gadget\": \"bad\"}\n");
  ASSERT_EQ(h.submitted.size(), 2u);  // both fit before output existed

  h.complete(0, "first");
  EXPECT_GT(h.conn.output().size(), limits.max_output_bytes);
  EXPECT_FALSE(h.conn.wants_read());  // the client is not draining

  // A third line arrives while output is clogged: parsed, NOT submitted.
  h.conn.feed("{\"kind\": \"analyze-safety\", \"gadget\": \"good\"}\n");
  EXPECT_EQ(h.submitted.size(), 2u);

  // Draining the output unblocks both reading and the held submission.
  h.conn.consume_output(h.conn.output().size());
  EXPECT_EQ(h.submitted.size(), 3u);
  EXPECT_TRUE(h.conn.wants_read());
}

TEST(Connection, HalfCloseFlushesTheUnterminatedFinalLine) {
  ConnHarness h;
  h.conn.feed("{\"kind\": \"stats\"}");  // no newline
  EXPECT_TRUE(h.submitted.empty());
  h.conn.input_closed();
  ASSERT_EQ(h.submitted.size(), 1u);
  EXPECT_FALSE(h.conn.finished());  // still owes the answer

  h.complete(0, "done");
  EXPECT_FALSE(h.conn.finished());  // output not drained yet
  h.conn.consume_output(h.conn.output().size());
  EXPECT_TRUE(h.conn.finished());
}

// ------------------------------------------------------- socket round trips --

/// Runs a Server on a background thread and tears it down via
/// request_drain() — the same path SIGTERM takes in fsr_serve.
struct ServerFixture {
  explicit ServerFixture(ServerOptions options)
      : server(std::move(options)), thread([this] { exit_code = server.run(); }) {}
  ~ServerFixture() {
    if (thread.joinable()) {
      server.request_drain();
      thread.join();
    }
  }
  Server server;
  int exit_code = -1;
  std::thread thread;
};

int connect_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  timeval timeout{30, 0};  // a hung test should fail, not wedge ctest
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

void send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
}

std::string recv_until_eof(int fd) {
  std::string data;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    data.append(buffer, static_cast<std::size_t>(n));
  }
  return data;
}

/// One full client exchange: send the stream, half-close, read to EOF.
std::string exchange(int fd, std::string_view request_stream) {
  send_all(fd, request_stream);
  ::shutdown(fd, SHUT_WR);
  const std::string replies = recv_until_eof(fd);
  ::close(fd);
  return replies;
}

constexpr const char* kMixedStream =
    "{\"kind\": \"analyze-safety\", \"gadget\": \"good\"}\n"
    "\n"
    "{\"kind\": \"simulate\", \"gadget\": \"good\", \"seed\": 7}\n"
    "{\"kind\": \"analyze-safety\", \"gadget\": \"bad\"}\n";

ServerOptions tcp_options(int shards) {
  ServerOptions options;
  options.tcp_host = "127.0.0.1";
  options.tcp_port = 0;  // ephemeral
  options.service.threads = shards;
  return options;
}

TEST(ServerSocket, TcpResponsesAreByteIdenticalAcrossShardCounts) {
  std::string replies_by_shards[2];
  const int shard_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    ServerFixture fixture(tcp_options(shard_counts[i]));
    replies_by_shards[i] =
        exchange(connect_tcp(fixture.server.tcp_port()), kMixedStream);
  }
  EXPECT_FALSE(replies_by_shards[0].empty());
  EXPECT_EQ(replies_by_shards[0], replies_by_shards[1]);

  // Sanity on the content: three answers, dense ids, blank line skipped.
  EXPECT_NE(replies_by_shards[0].find("\"id\": 0"), std::string::npos);
  EXPECT_NE(replies_by_shards[0].find("\"id\": 2"), std::string::npos);
  EXPECT_EQ(replies_by_shards[0].find("\"id\": 3"), std::string::npos);
}

TEST(ServerSocket, UnixListenerSpeaksTheSameProtocol) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fsr-netserve-test-" + std::to_string(::getpid()) + ".sock"))
          .string();
  std::string tcp_replies, unix_replies;
  {
    ServerOptions options = tcp_options(4);
    options.unix_path = path;
    ServerFixture fixture(std::move(options));
    unix_replies = exchange(connect_unix(path), kMixedStream);
    tcp_replies =
        exchange(connect_tcp(fixture.server.tcp_port()), kMixedStream);
  }
  EXPECT_FALSE(unix_replies.empty());
  EXPECT_EQ(unix_replies, tcp_replies);
  EXPECT_FALSE(std::filesystem::exists(path));  // drain unlinks the socket
}

TEST(ServerSocket, RequestBytesMayArriveInArbitrarilySmallPieces) {
  ServerFixture fixture(tcp_options(2));
  const int fd = connect_tcp(fixture.server.tcp_port());
  const std::string_view stream = kMixedStream;
  for (std::size_t i = 0; i < stream.size(); i += 3) {
    send_all(fd, stream.substr(i, 3));
  }
  ::shutdown(fd, SHUT_WR);
  const std::string dribbled = recv_until_eof(fd);
  ::close(fd);

  const std::string whole =
      exchange(connect_tcp(fixture.server.tcp_port()), kMixedStream);
  EXPECT_EQ(dribbled, whole);
}

TEST(ServerSocket, ConcurrentClientsEachGetTheStdinContract) {
  ServerFixture fixture(tcp_options(4));
  const std::uint16_t port = fixture.server.tcp_port();
  std::vector<std::string> replies(6);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    clients.emplace_back([port, i, &replies] {
      replies[i] = exchange(connect_tcp(port), kMixedStream);
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 1; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i], replies[0]) << "client " << i;
  }
  EXPECT_FALSE(replies[0].empty());
}

TEST(ServerSocket, DrainClosesAnIdleClientCleanlyAndExitsZero) {
  ServerFixture fixture(tcp_options(2));
  const int fd = connect_tcp(fixture.server.tcp_port());
  // The client never half-closes. First prove the line was received and
  // answered (read the full response line), THEN request the drain: the
  // server must close the connection from its side and run() return 0
  // without waiting on a client that would otherwise idle forever.
  send_all(fd, "{\"kind\": \"analyze-safety\", \"gadget\": \"good\"}\n");
  std::string first_line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') first_line.push_back(c);
  EXPECT_NE(first_line.find("\"id\": 0"), std::string::npos);
  EXPECT_NE(first_line.find("analyze-safety"), std::string::npos);

  fixture.server.request_drain();
  EXPECT_EQ(recv_until_eof(fd), "");  // clean EOF, no stray bytes
  ::close(fd);
  fixture.thread.join();
  EXPECT_EQ(fixture.exit_code, 0);
}

}  // namespace
}  // namespace fsr::netserve
