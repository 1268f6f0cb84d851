// fsrbench_trace: the traced run. It replays the inputs the workloads
// generate from one seed, in process, through the same public calls the
// serve and campaign paths make, with an obs::Tracer installed, and prints
// every per-layer metric as one JSON line.
//
//   fsrbench_trace --seed 1 --seconds 10 --bin-dir .bench_build --tmp-dir T
//
// Every run covers every layer, whichever workload it is named after:
//   * a socket probe against a real fsr_serve (netserve counters);
//   * serve-hot's stream: framing, parse, fingerprint and render timed around
//     single calls, then the stream through an AnalysisService (warm
//     sessions, the SAT oracle), untraced and traced in turn for the tracing
//     overhead;
//   * serve-cold's stream at its fixed Poisson rate (queue wait, execute, the
//     solver layers), plus translation, session build and emulation timed
//     around single calls;
//   * fsr_campaign's cold and warm passes, and the record codec.
// Span times come from the program's own spans (service.execute,
// safety.analyze, smt.check, sat.analyze, repair.run, sim.run,
// campaign.run) and from this file's timers around public calls; counts are
// registry deltas taken at phase boundaries.
#include <poll.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/json.h"
#include "api/request.h"
#include "api/service.h"
#include "api/wire.h"
#include "campaign/cache.h"
#include "campaign/runner.h"
#include "campaign/scenario_source.h"
#include "client.h"
#include "core.h"
#include "fsr/emulation.h"
#include "groundtruth/stable_sat.h"
#include "netserve/framing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spp/translate.h"

namespace fsrbench {
namespace {

using fsr::api::json::Value;

struct Args {
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string bin_dir = ".bench_build";
  std::string tmp_dir = ".bench_build/tmp";
};

/// The per-layer metrics of this run, in the order they are printed.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_.emplace_back(name, std::make_pair(value, unit));
  }
  std::string json() const {
    std::string out = "{";
    for (const auto& [name, value] : values_) {
      char text[200];
      std::snprintf(text, sizeof text, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    out.size() > 1 ? ", " : "", name.c_str(), value.first,
                    value.second.c_str());
      out += text;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values_;
};

/// Outputs the traced run checked: traced answers equal untraced ones, and
/// no replayed request or scenario failed.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

double counter(const fsr::obs::MetricsSnapshot& snapshot, const std::string& name) {
  return static_cast<double>(snapshot.value(name));
}

/// Registry delta between two snapshots.
struct Delta {
  fsr::obs::MetricsSnapshot before, after;
  double operator()(const std::string& name) const {
    return counter(after, name) - counter(before, name);
  }
};

double ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

double mean(const std::vector<double>& values) {
  double total = 0;
  for (const double value : values) total += value;
  return values.empty() ? 0 : total / static_cast<double>(values.size());
}

/// The highest of p99 (when the sample supports it) or the maximum.
double tail(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return percentile(values, 0.99).value_or(*std::max_element(values.begin(), values.end()));
}

/// Complete ("X") spans of one trace, with self time: a span's duration
/// minus the part its child spans on the same thread cover.
struct SpanTimes {
  std::map<std::string, std::vector<double>> total_ms, self_ms;
};

SpanTimes span_times(const fsr::obs::Tracer& tracer) {
  struct Span {
    std::string name;
    std::uint64_t tid, start, dur;
  };
  std::vector<Span> spans;
  const Value trace = fsr::api::json::parse(tracer.chrome_trace_json());
  for (const Value& event : trace.find("traceEvents")->as_array("traceEvents")) {
    if (event.find("ph")->as_string("ph") != "X") continue;
    spans.push_back({event.find("name")->as_string("name"), event.find("tid")->as_u64("tid"),
                     event.find("ts")->as_u64("ts"), event.find("dur")->as_u64("dur")});
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    return a.dur > b.dur;
  });
  SpanTimes times;
  std::vector<double> child_us(spans.size(), 0);
  std::vector<std::size_t> open;  // stack of enclosing spans on this thread
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() &&
           (spans[open.back()].tid != spans[i].tid ||
            spans[open.back()].start + spans[open.back()].dur <= spans[i].start)) {
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += static_cast<double>(spans[i].dur);
    open.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].dur);
    times.total_ms[spans[i].name].push_back(dur / 1e3);
    times.self_ms[spans[i].name].push_back(std::max(0.0, dur - child_us[i]) / 1e3);
  }
  return times;
}

std::vector<GenRequest> generate(const ServeWorkload& workload, std::uint64_t seed,
                                 std::size_t count) {
  return phase_requests(workload, seed, kOpenPopulation, count);
}

fsr::api::Request parse(const GenRequest& request) {
  return fsr::api::wire::parse_request("{" + request.body + "}");
}

/// Mean microseconds per item of `work` over `items`.
template <typename T, typename F>
double time_each_us(const std::vector<T>& items, F work) {
  const Clock::time_point start = Clock::now();
  for (const T& item : items) work(item);
  return 1e6 * seconds_between(start, Clock::now()) / static_cast<double>(items.size());
}

// ------------------------------------------------------------ netserve --

void wait_readable(const Conn& conn) {
  pollfd fd{conn.fd(), POLLIN, 0};
  ::poll(&fd, 1, 100);
}

void socket_probe(const Args& args, Metrics& metrics) {
  ServerProcess server(args.bin_dir + "/fsr_serve", {"--shards", "2"},
                       args.tmp_dir + "/fsr_serve_probe.log");
  const std::vector<GenRequest> requests = generate(serve_hot(), args.seed, 4000);
  Conn conn(server.port());
  const auto stats = [&] {
    conn.send("{\"kind\": \"stats\"}\n");
    std::string line;
    while (line.empty()) {
      conn.flush();
      wait_readable(conn);
      conn.receive([&](const std::string& got) { line = got; });
    }
    const Value body = fsr::api::json::parse(line);
    return *body.find("stats")->find("metrics");
  };
  const Value before = stats();
  std::size_t answered = 0, next = 0;
  const std::size_t depth = 16;
  while (answered < requests.size()) {
    while (next < requests.size() && next - answered < depth) {
      conn.send(wire_line(requests[next], next));
      ++next;
    }
    conn.flush();
    wait_readable(conn);
    conn.receive([&](const std::string&) { ++answered; });
  }
  const Value after = stats();
  const auto delta = [&](const char* name) {
    const Value* a = after.find(name);
    const Value* b = before.find(name);
    return (a ? a->as_number(name) : 0) - (b ? b->as_number(name) : 0);
  };
  // Each stats call itself moves the byte counters by its own request and
  // response; the measured stream dwarfs that.
  metrics.set("netserve.bytes_per_request",
              ratio(delta("net.bytes_in") + delta("net.bytes_out"),
                    static_cast<double>(requests.size())),
              "B");
  metrics.set("netserve.backpressure_stalls", delta("net.backpressure_stalls"), "count");
  server.stop();
}

// ----------------------------------------------------------- serve-hot --

void hot_replay(const Args& args, Metrics& metrics, Checks& checks) {
  const auto count = static_cast<std::size_t>(1000 * args.seconds);
  const std::vector<GenRequest> requests = generate(serve_hot(), args.seed, count);
  std::string stream;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    lines.push_back(wire_line(requests[i], i));
    stream += lines.back();
  }

  // Framing: the byte stream in recv-sized chunks.
  fsr::netserve::LineFramer framer;
  std::size_t frames = 0;
  const Clock::time_point frame_start = Clock::now();
  for (std::size_t at = 0; at < stream.size(); at += 65536) {
    frames += framer.feed(std::string_view(stream).substr(at, 65536)).size();
  }
  metrics.set("netserve.frame_us",
              1e6 * seconds_between(frame_start, Clock::now()) / static_cast<double>(frames),
              "us");
  metrics.set("api.parse_us",
              time_each_us(lines, [](const std::string& line) {
                (void)fsr::api::wire::parse_request(line);
              }),
              "us");
  std::vector<fsr::api::Request> parsed;
  for (const GenRequest& request : requests) parsed.push_back(parse(request));
  metrics.set("api.fingerprint_us",
              time_each_us(parsed, [](const fsr::api::Request& request) {
                (void)fsr::api::fingerprint(request);
              }),
              "us");

  fsr::api::ServiceOptions options;
  options.threads = 2;
  fsr::api::AnalysisService service(options);
  std::vector<fsr::api::Request> priming;
  for (const GenRequest& request : StreamGenerator::priming_set(serve_hot())) {
    priming.push_back(parse(request));
  }
  service.run(priming);

  // Untraced and traced replays alternate; the overhead is their medians'.
  // The first traced round supplies the spans and counters; every traced
  // round must render the same bytes as the untraced one before it.
  std::vector<double> plain_s, traced_s;
  std::vector<fsr::api::Response> responses;
  fsr::api::ServiceStats stats_before{}, stats_after{};
  Delta delta;
  SpanTimes spans;
  for (int round = 0; round < 3; ++round) {
    Clock::time_point start = Clock::now();
    const std::vector<fsr::api::Response> plain = service.run(parsed);
    plain_s.push_back(seconds_between(start, Clock::now()));
    fsr::obs::Tracer tracer;
    if (round == 0) {
      stats_before = service.stats();
      delta.before = fsr::obs::registry().snapshot();
    }
    fsr::obs::install_tracer(&tracer);
    start = Clock::now();
    std::vector<fsr::api::Response> traced = service.run(parsed);
    traced_s.push_back(seconds_between(start, Clock::now()));
    fsr::obs::install_tracer(nullptr);
    for (std::size_t i = 0; i < traced.size(); ++i) {
      // Ids count submissions across rounds; the rest must match.
      fsr::api::Response traced_answer = traced[i], plain_answer = plain[i];
      traced_answer.id = plain_answer.id = 0;
      ++checks.attempted;
      if (fsr::api::wire::render_response(traced_answer) !=
          fsr::api::wire::render_response(plain_answer)) {
        ++checks.failed;
      }
    }
    if (round == 0) {
      stats_after = service.stats();
      delta.after = fsr::obs::registry().snapshot();
      responses = std::move(traced);
      spans = span_times(tracer);
    }
  }
  metrics.set("obs.trace_overhead_pct",
              100.0 * (median(traced_s) - median(plain_s)) / median(plain_s), "%");
  metrics.set("api.render_us",
              time_each_us(responses, [](const fsr::api::Response& response) {
                (void)fsr::api::wire::render_response(response);
              }),
              "us");

  const double completed = static_cast<double>(stats_after.completed - stats_before.completed);
  const double warm = static_cast<double>(stats_after.warm_hits - stats_before.warm_hits);
  metrics.set("api.warm_hit_ratio", ratio(warm, completed), "fraction");
  metrics.set("api.affinity_hit_ratio",
              ratio(static_cast<double>(stats_after.affinity_hits - stats_before.affinity_hits),
                    warm),
              "fraction");

  const auto sat = spans.total_ms.find("sat.analyze");
  metrics.set("groundtruth.solve_ms",
              sat == spans.total_ms.end() ? 0 : median(sat->second), "ms");
  metrics.set("groundtruth.conflicts_per_query",
              ratio(delta("sat.conflicts"), delta("sat.queries")), "count");
  metrics.set("groundtruth.propagations_per_query",
              ratio(delta("sat.propagations"), delta("sat.queries")), "count");
  metrics.set("groundtruth.group_reuse_ratio",
              ratio(delta("sat.group_cache_hits"),
                    delta("sat.group_cache_hits") + delta("sat.groups_encoded")),
              "fraction");
}

// ---------------------------------------------------------- serve-cold --

void cold_replay(const Args& args, Metrics& metrics, Checks& checks) {
  const ServeWorkload& workload = serve_cold();
  const std::vector<double> offsets =
      poisson_schedule(args.seed * 2654435761ULL + 1, workload.rate_rps, 0.3 * args.seconds);
  const std::vector<GenRequest> requests = generate(workload, args.seed, offsets.size());
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < requests.size(); ++i) lines.push_back(wire_line(requests[i], i));
  metrics.set("api.parse_cold_us",
              time_each_us(lines, [](const std::string& line) {
                (void)fsr::api::wire::parse_request(line);
              }),
              "us");
  std::vector<fsr::api::Request> parsed;
  for (const GenRequest& request : requests) parsed.push_back(parse(request));
  metrics.set("api.fingerprint_cold_us",
              time_each_us(parsed, [](const fsr::api::Request& request) {
                (void)fsr::api::fingerprint(request);
              }),
              "us");

  // Single public calls on the instances of the stream.
  std::vector<std::shared_ptr<const fsr::spp::SppInstance>> instances;
  std::vector<std::pair<std::shared_ptr<const fsr::spp::SppInstance>, std::uint64_t>> emulations;
  for (const fsr::api::Request& request : parsed) {
    std::visit(
        [&](const auto& typed) {
          if constexpr (requires { typed.spp; }) {
            if (typed.spp) instances.push_back(typed.spp);
          }
          if constexpr (std::is_same_v<std::decay_t<decltype(typed)>, fsr::api::EmulateRequest>) {
            emulations.emplace_back(typed.spp, typed.seed);
          }
        },
        request);
  }
  metrics.set("spp.translate_us",
              time_each_us(instances, [](const auto& instance) {
                (void)fsr::spp::algebra_from_spp(*instance);
              }),
              "us");
  metrics.set("groundtruth.build_ms",
              time_each_us(instances, [](const auto& instance) {
                fsr::groundtruth::StableSatSession session(*instance);
                (void)session;
              }) / 1e3,
              "ms");
  std::vector<double> emulation_ms, emulation_messages;
  for (const auto& [instance, seed] : emulations) {
    fsr::EmulationOptions options;
    options.seed = seed;
    const Clock::time_point start = Clock::now();
    const fsr::EmulationResult result = fsr::emulate_spp(*instance, options);
    emulation_ms.push_back(1e3 * seconds_between(start, Clock::now()));
    emulation_messages.push_back(static_cast<double>(result.messages));
  }
  metrics.set("emulation.run_ms", median(emulation_ms), "ms");
  metrics.set("emulation.messages_per_run", mean(emulation_messages), "count");

  // The stream at the workload's rate through a 2-worker service, traced.
  fsr::api::ServiceOptions options;
  options.threads = 2;
  fsr::api::AnalysisService service(options);
  fsr::obs::Tracer tracer;
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t done = 0;
  std::uint64_t cold_errors = 0;
  std::vector<double> queue_wait_ms(parsed.size(), 0);
  const fsr::api::ServiceStats stats_before = service.stats();
  Delta delta;
  delta.before = fsr::obs::registry().snapshot();
  fsr::obs::install_tracer(&tracer);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(offsets[i])));
    const Clock::time_point submitted = Clock::now();
    service.submit(std::move(parsed[i]), [&, i, submitted](fsr::api::Response response) {
      const double total_ms = 1e3 * seconds_between(submitted, Clock::now());
      std::lock_guard<std::mutex> lock(mutex);
      queue_wait_ms[i] = std::max(0.0, total_ms - response.wall_ms);
      if (!response.error.empty()) ++cold_errors;
      if (++done == queue_wait_ms.size()) all_done.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    all_done.wait(lock, [&] { return done == queue_wait_ms.size(); });
  }
  fsr::obs::install_tracer(nullptr);
  delta.after = fsr::obs::registry().snapshot();
  const fsr::api::ServiceStats stats_after = service.stats();
  checks.attempted += parsed.size();
  checks.failed += cold_errors;
  const double requests_done = static_cast<double>(stats_after.completed - stats_before.completed);

  const SpanTimes spans = span_times(tracer);
  const auto totals = [&](const char* name) {
    const auto it = spans.total_ms.find(name);
    return it == spans.total_ms.end() ? std::vector<double>{} : it->second;
  };
  const auto selfs = [&](const char* name) {
    const auto it = spans.self_ms.find(name);
    return it == spans.self_ms.end() ? std::vector<double>{} : it->second;
  };
  metrics.set("api.queue_wait_ms_p50", median(queue_wait_ms), "ms");
  metrics.set("api.queue_wait_ms_p99", tail(queue_wait_ms), "ms");
  metrics.set("api.execute_ms_p50", median(totals("service.execute")), "ms");
  metrics.set("api.execute_ms_p99", tail(totals("service.execute")), "ms");
  metrics.set("api.execute_self_ms", mean(selfs("service.execute")), "ms");
  metrics.set("api.sessions_built_per_1k",
              1e3 * ratio(static_cast<double>(stats_after.sessions_built -
                                              stats_before.sessions_built),
                          requests_done),
              "count");
  metrics.set("api.evictions_per_1k", 1e3 * ratio(delta("session_cache.evictions"), requests_done),
              "count");
  metrics.set("fsr.safety_ms_p50", median(totals("safety.analyze")), "ms");
  metrics.set("fsr.safety_ms_p99", tail(totals("safety.analyze")), "ms");
  metrics.set("fsr.safety_self_ms", mean(selfs("safety.analyze")), "ms");
  metrics.set("smt.check_ms_p50", median(totals("smt.check")), "ms");
  metrics.set("smt.checks_per_analysis", ratio(delta("smt.checks"), delta("safety.analyses")),
              "count");
  metrics.set("smt.engine_rebuilds", delta("smt.engine_rebuilds"), "count");
  metrics.set("repair.run_ms_p50", median(totals("repair.run")), "ms");
  metrics.set("repair.run_ms_p99", tail(totals("repair.run")), "ms");
  metrics.set("repair.candidates_per_run",
              ratio(delta("repair.candidates_checked"), delta("repair.runs")), "count");
  metrics.set("repair.solver_checks_per_run",
              ratio(delta("repair.solver_checks"), delta("repair.runs")), "count");
  metrics.set("repair.oracle_queries_per_run",
              ratio(delta("repair.oracle_queries"), delta("repair.runs")), "count");
  metrics.set("repair.success_ratio", ratio(delta("repair.repaired"), delta("repair.runs")),
              "fraction");
  metrics.set("sim.run_ms_p50", median(totals("sim.run")), "ms");
  metrics.set("sim.run_ms_p99", tail(totals("sim.run")), "ms");
  metrics.set("sim.messages_per_run", ratio(delta("sim.messages"), delta("sim.runs")), "count");
  metrics.set("sim.oscillation_ratio", ratio(delta("sim.oscillations"), delta("sim.runs")),
              "fraction");
  metrics.set("sim.hash_collisions", delta("sim.hash_collisions"), "count");
}

// ------------------------------------------------------------ campaign --

void campaign_replay(const Args& args, Metrics& metrics, Checks& checks) {
  namespace fs = std::filesystem;
  std::vector<std::unique_ptr<fsr::campaign::ScenarioSource>> sources;
  for (const std::string& name : fsr::campaign::builtin_source_names()) {
    sources.push_back(fsr::campaign::make_builtin_source(name, false, true));
  }
  fsr::obs::Tracer tracer;
  std::vector<double> encode_us, decode_us, hit_ratio, disk_bytes, dedup;
  Rng seeds(args.seed ^ 0x43414d504149474eULL);  // "CAMPAIGN"
  for (int pass = 0; pass < 3; ++pass) {
    const std::string dir = args.tmp_dir + "/trace-campaign-" + std::to_string(pass);
    fs::remove_all(dir);
    fsr::campaign::CampaignOptions options;
    options.seed = seeds.next() % 1000000;
    options.threads = 4;
    options.attempt_repair = true;
    options.cache_dir = dir;
    fsr::obs::install_tracer(&tracer);
    fsr::campaign::CampaignReport report;
    {
      fsr::campaign::CampaignRunner cold(options);
      report = cold.run(sources);
      disk_bytes.push_back(static_cast<double>(cold.cache().disk_bytes()));
    }
    fsr::obs::install_tracer(nullptr);
    dedup.push_back(ratio(static_cast<double>(report.deduplicated_count),
                          static_cast<double>(report.results.size())));
    for (const fsr::campaign::ScenarioResult& result : report.results) {
      ++checks.attempted;
      if (result.outcome != nullptr && !result.outcome->error.empty()) ++checks.failed;
      if (result.outcome == nullptr || result.deduplicated) continue;
      Clock::time_point start = Clock::now();
      const std::string record = fsr::campaign::serialize_outcome(*result.outcome);
      encode_us.push_back(1e6 * seconds_between(start, Clock::now()));
      start = Clock::now();
      const auto decoded = fsr::campaign::deserialize_outcome(record);
      decode_us.push_back(1e6 * seconds_between(start, Clock::now()));
      if (decoded == nullptr) throw std::runtime_error("campaign record failed to decode");
    }
    fsr::campaign::CampaignRunner warm(options);
    (void)warm.run(sources);
    hit_ratio.push_back(ratio(static_cast<double>(warm.cache().hits()),
                              static_cast<double>(warm.cache().hits() + warm.cache().misses())));
    fs::remove_all(dir);
  }
  const SpanTimes spans = span_times(tracer);
  const auto run = spans.total_ms.find("campaign.run");
  metrics.set("campaign.run_s", run == spans.total_ms.end() ? 0 : median(run->second) / 1e3, "s");
  metrics.set("campaign.record_encode_us", median(encode_us), "us");
  metrics.set("campaign.record_decode_us", median(decode_us), "us");
  metrics.set("campaign.cache_hit_ratio", median(hit_ratio), "fraction");
  metrics.set("campaign.cache_disk_bytes", median(disk_bytes), "B");
  metrics.set("campaign.dedup_ratio", median(dedup), "fraction");
}

}  // namespace
}  // namespace fsrbench

int main(int argc, char** argv) {
  using namespace fsrbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--bin-dir") {
      args.bin_dir = value;
    } else if (flag == "--tmp-dir") {
      args.tmp_dir = value;
    } else {
      std::fprintf(stderr, "fsrbench_trace: unknown option %s\n", flag.c_str());
      return 2;
    }
  }
  try {
    Metrics metrics;
    socket_probe(args, metrics);
    Checks checks;
    hot_replay(args, metrics, checks);
    cold_replay(args, metrics, checks);
    campaign_replay(args, metrics, checks);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed), metrics.json().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fsrbench_trace: %s\n", error.what());
    return 1;
  }
}
