// fsr_serve: the streaming front-end of the fsr::api service.
//
//   printf '%s\n' \
//     '{"kind": "analyze-safety", "gadget": "bad"}' \
//     '{"kind": "ground-truth", "gadget": "bad-chain-8"}' \
//     '{"kind": "repair", "gadget": "bad"}' | fsr_serve --threads 4
//
// Reads JSON-lines requests from stdin (see api/wire.h for the schema),
// fans them out over the AnalysisService worker pool, and streams
// JSON-lines responses to stdout IN REQUEST ORDER — for a fixed request
// stream and options the output bytes are identical for any --threads
// value (the service determinism contract; --timings adds scheduling-
// dependent provenance and breaks that property on purpose).
//
// With --listen HOST:PORT and/or --unix PATH the same protocol is served
// over sockets instead (fsr::netserve): many concurrent clients, per-
// connection pipelining and backpressure, graceful drain on SIGTERM.
// Each connection gets the stdin contract — identical response bytes for
// its request stream, at any --shards value (docs/WIRE.md "Transport").
//
// A malformed or failing request answers with an error response on its
// line — it never aborts the stream. Stdin mode exits 0 when every line
// was answered, 1 when any response carried an error (so batch pipelines
// notice), 2 on usage errors; server mode exits 0 on a clean drain
// (client errors are per-connection, not process state).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "api/json.h"
#include "api/service.h"
#include "api/wire.h"
#include "groundtruth/engine.h"
#include "netserve/framing.h"
#include "netserve/server.h"
#include "obs/cli.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/strings.h"

namespace {

void print_usage() {
  std::printf(
      "usage: fsr_serve [options] < requests.jsonl > responses.jsonl\n"
      "       fsr_serve --listen HOST:PORT [options]\n"
      "       fsr_serve --unix PATH [options]\n"
      "  --threads N        service worker threads (default 1); responses\n"
      "                     are byte-identical for any value\n"
      "  --shards N         alias for --threads (the worker shards the\n"
      "                     fingerprint-affinity scheduler maps onto)\n"
      "  --listen HOST:PORT serve the protocol over TCP (port 0 picks an\n"
      "                     ephemeral port, announced on stderr); may be\n"
      "                     combined with --unix\n"
      "  --unix PATH        serve the protocol over a Unix-domain socket\n"
      "  --round-robin      ablation: schedule by rotation instead of\n"
      "                     fingerprint affinity (bytes identical, warm\n"
      "                     hit rate usually worse)\n"
      "  --session-cache N  warm solver sessions kept per worker\n"
      "                     (default 8; 0 disables cross-request reuse)\n"
      "  --max-edits K      repair edit-size cap (default 2)\n"
      "  --beam W           repair frontier beam width (default 64)\n"
      "  --ground-truth M   default oracle: sat-search (default) |\n"
      "                     enumerate\n"
      "  --timings          add warm_session/shard/wall_ms provenance\n"
      "                     (output is then no longer byte-stable)\n"
      "%s"
      "  --slow-ms N        slow-request watchdog threshold in ms\n"
      "                     (fractional ok; default 1000; 0 disables)\n"
      "  --help             this message\n",
      fsr::obs::diagnostics_usage());
}

fsr::netserve::Server* g_server = nullptr;

void handle_drain_signal(int) {
  // Async-signal-safe: request_drain only stores an atomic and writes a
  // pre-opened pipe fd.
  if (g_server != nullptr) g_server->request_drain();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsr::api;

  ServiceOptions options;
  wire::RenderOptions render_options;
  fsr::obs::DiagnosticsCliOptions diagnostics;
  std::string listen_spec;
  std::string unix_path;

  const auto need_value = [&](int& i, const char* flag) {
    return fsr::obs::flag_value(argc, argv, i, "fsr_serve", flag);
  };
  const auto int_value = [&](int& i, const char* flag, int min) {
    return fsr::obs::int_flag_value(argc, argv, i, "fsr_serve", flag, min);
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (fsr::obs::consume_diagnostics_flag(argc, argv, i, "fsr_serve",
                                           diagnostics)) {
      continue;
    }
    if (std::strcmp(arg, "--threads") == 0 ||
        std::strcmp(arg, "--shards") == 0) {
      options.threads = int_value(i, arg, 1);
    } else if (std::strcmp(arg, "--listen") == 0) {
      listen_spec = need_value(i, "--listen");
    } else if (std::strcmp(arg, "--unix") == 0) {
      unix_path = need_value(i, "--unix");
    } else if (std::strcmp(arg, "--round-robin") == 0) {
      options.schedule = SchedulePolicy::round_robin;
    } else if (std::strcmp(arg, "--session-cache") == 0) {
      options.session_cache_capacity =
          static_cast<std::size_t>(int_value(i, "--session-cache", 0));
    } else if (std::strcmp(arg, "--max-edits") == 0) {
      options.repair.max_edits =
          static_cast<std::size_t>(int_value(i, "--max-edits", 1));
    } else if (std::strcmp(arg, "--beam") == 0) {
      options.repair.beam_width =
          static_cast<std::size_t>(int_value(i, "--beam", 0));
    } else if (std::optional<fsr::groundtruth::Mode> mode;
               fsr::groundtruth::consume_mode_flag(argc, argv, i, mode)) {
      if (!mode.has_value()) {
        std::fprintf(stderr,
                     "fsr_serve: --ground-truth needs a mode "
                     "(enumerate | sat-search)\n");
        return 2;
      }
      options.ground_truth = *mode;
      options.repair.ground_truth = *mode;
    } else if (std::strcmp(arg, "--timings") == 0) {
      render_options.timings = true;
    } else if (std::strcmp(arg, "--slow-ms") == 0) {
      options.slow_request_ms = fsr::obs::nonnegative_flag_value(
          argc, argv, i, "fsr_serve", "--slow-ms");
    } else if (std::strcmp(arg, "--help") == 0) {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "fsr_serve: unknown option '%s'\n", arg);
      print_usage();
      return 2;
    }
  }

  fsr::obs::set_thread_name("main");

  // The diagnostics stack (tracer/recorder/crash handler/metrics writer)
  // must outlive the service — workers cache recorder ring pointers — so
  // it is constructed before, and finalized after, everything below.
  fsr::obs::DiagnosticsSession diagnostics_session(diagnostics, "fsr_serve");

  if (!listen_spec.empty() || !unix_path.empty()) {
    // ---- Socket server mode (fsr::netserve) ----
    fsr::netserve::ServerOptions server_options;
    server_options.service = options;
    server_options.render = render_options;
    server_options.unix_path = unix_path;
    if (!listen_spec.empty()) {
      const std::size_t colon = listen_spec.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "fsr_serve: --listen needs HOST:PORT\n");
        return 2;
      }
      server_options.tcp_host = listen_spec.substr(0, colon);
      const std::optional<int> port = fsr::util::parse_int(
          std::string_view(listen_spec).substr(colon + 1), 0, 65535);
      if (server_options.tcp_host.empty() || !port.has_value()) {
        std::fprintf(stderr, "fsr_serve: --listen needs HOST:PORT\n");
        return 2;
      }
      server_options.tcp_port = static_cast<std::uint16_t>(*port);
    }
    const std::string tcp_host = server_options.tcp_host;
    try {
      fsr::netserve::Server server(std::move(server_options));
      g_server = &server;
      struct sigaction action {};
      action.sa_handler = handle_drain_signal;
      ::sigaction(SIGTERM, &action, nullptr);
      ::sigaction(SIGINT, &action, nullptr);
      if (!listen_spec.empty()) {
        // Announced so scripts (and CI) can discover an ephemeral port.
        std::fprintf(stderr, "fsr_serve: listening on %s:%u\n",
                     tcp_host.c_str(),
                     static_cast<unsigned>(server.tcp_port()));
      }
      if (!unix_path.empty()) {
        std::fprintf(stderr, "fsr_serve: listening on unix:%s\n",
                     unix_path.c_str());
      }
      const int status = server.run();
      g_server = nullptr;
      return diagnostics_session.finalize() && status == 0 ? status : 1;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "fsr_serve: %s\n", error.what());
      return 1;
    }
  }

  // ---- Stdin pipe mode (byte-compatible with every earlier release) ----
  AnalysisService service(options);

  // In-flight responses, drained to stdout in request order: submissions
  // stream in while earlier requests still compute, and a ready prefix is
  // flushed opportunistically after every enqueue — the front-end never
  // needs the whole stream in memory. Output ids are the request's
  // ordinal in the stream (dense over non-blank lines), so they stay
  // deterministic even when a malformed line never reaches the service.
  std::deque<std::future<Response>> pending;
  bool any_error = false;
  std::uint64_t next_output_id = 0;
  const auto flush_ready = [&](bool wait_all) {
    while (!pending.empty() &&
           (wait_all || pending.front().wait_for(std::chrono::seconds(0)) ==
                            std::future_status::ready)) {
      Response response = pending.front().get();
      pending.pop_front();
      response.id = next_output_id++;
      if (!response.error.empty()) any_error = true;
      std::string line = wire::render_response(response, render_options);
      line += '\n';
      std::fwrite(line.data(), 1, line.size(), stdout);
      std::fflush(stdout);
    }
  };

  std::string line;
  std::uint64_t line_number = 0;
  while (std::getline(std::cin, line)) {
    ++line_number;
    bool blank = true;
    for (const char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') blank = false;
    }
    if (blank) continue;
    // Bounded in-flight queue: on huge streams std::getline outruns the
    // pool, and an unbounded pending deque would hold every response of
    // the backlog in memory. Same constant as a netserve connection's
    // in-flight cap — the two front-ends make the same memory promise.
    while (pending.size() >= fsr::netserve::kMaxInflightPerConnection) {
      pending.front().wait();
      flush_ready(false);  // the front is ready: writes at least one
    }
    // One parse per line: the request and (on failure) the kind
    // attribution read the same tree.
    std::optional<json::Value> body;
    try {
      body = json::parse(line);
      Request request = wire::parse_request(*body);
      if (std::holds_alternative<StatsRequest>(request) ||
          std::holds_alternative<DebugRequest>(request)) {
        // Introspection is a stream barrier: drain everything submitted
        // before it so the snapshot (stats counters or recorder history)
        // means "every request earlier in the stream" rather than
        // "whatever happened to be done".
        flush_ready(true);
      }
      pending.push_back(service.submit(std::move(request)));
    } catch (const std::exception& error) {
      // Parse/schema failures answer in-band, one response per request
      // line, WITHOUT touching the service — a synthetic ready future
      // keeps the stream flowing while earlier requests still compute.
      Response response;
      // Best-effort kind attribution when the line at least parsed; not
      // even JSON, the default kind stands and the error text explains.
      if (body.has_value()) {
        if (const auto kind = wire::named_kind(*body)) response.kind = *kind;
      }
      response.error = "line " + std::to_string(line_number) + ": " +
                       error.what();
      std::promise<Response> failed;
      failed.set_value(std::move(response));
      pending.push_back(failed.get_future());
    }
    flush_ready(false);
  }
  flush_ready(true);
  if (!diagnostics_session.finalize()) any_error = true;
  return any_error ? 1 : 0;
}
