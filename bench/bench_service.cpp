// AnalysisService throughput: requests/sec for cold vs warm-session
// request streams on the gadget library.
//
// The stream interleaves ground-truth and repair requests over the gadget
// library (the BAD-chain family included, where the base CNF/SMT encodings
// dominate per-request cost). "Cold" runs the stream through a service
// with session reuse disabled (session_cache_capacity 0): every request
// re-encodes its instance from scratch, the pre-façade behaviour. "Warm"
// runs the same stream through a service whose workers keep persistent
// sessions keyed by instance fingerprint, primed by one untimed pass — so
// the measured passes hit warm solver state (cached CNF ranking groups,
// learned clauses, encoded SMT bases) on every request.
//
// Responses are byte-compared (ids zeroed) before anything is timed: warm
// serving must never change deterministic bytes, and this bench refuses to
// publish a speedup for answers that drifted.
//
//   bench_service [--json FILE] [--check THRESHOLDS]
//
// --json writes the speedup/rps metrics; --check enforces
// service_warm_speedup_min from bench/thresholds.json — the CI gate for
// the warm-session contract — and service_symbolic_sparsity_ratio_min,
// which catches a dense FiniteAlgebra::symbolic() walk (the spec every
// SPP request's fingerprint starts from).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "algebra/standard_policies.h"
#include "api/service.h"
#include "api/wire.h"
#include "bench_util.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "spp/gadgets.h"
#include "spp/translate.h"
#include "topology/rocketfuel.h"

namespace {

const std::vector<const char*>& gadget_names() {
  static const std::vector<const char*> names = {
      "bad",         "disagree",    "ibgp-figure3",
      "bad-chain-4", "bad-chain-8", "bad-chain-16"};
  return names;
}

/// The gated workload: repeated exact queries over a hot instance set —
/// the "many scenarios, heavy traffic" shape warm sessions exist for. A
/// cold service pays the CNF encode per request; a warm one only solves.
std::vector<fsr::api::Request> query_stream() {
  std::vector<fsr::api::Request> requests;
  for (const char* name : gadget_names()) {
    auto instance = std::make_shared<const fsr::spp::SppInstance>(
        fsr::spp::gadget_by_name(name));
    requests.push_back(fsr::api::GroundTruthRequest{instance, {}});
  }
  return requests;
}

/// The informational workload: full repairs, where the candidate search
/// dominates and warm sessions only shave the encode/base costs.
std::vector<fsr::api::Request> repair_stream() {
  std::vector<fsr::api::Request> requests;
  for (const char* name : gadget_names()) {
    requests.push_back(fsr::api::RepairRequest{
        std::make_shared<const fsr::spp::SppInstance>(
            fsr::spp::gadget_by_name(name))});
  }
  return requests;
}

std::vector<std::string> response_bytes(
    std::vector<fsr::api::Response> responses) {
  std::vector<std::string> bytes;
  bytes.reserve(responses.size());
  for (fsr::api::Response& response : responses) {
    response.id = 0;  // submission order, not content
    bytes.push_back(fsr::api::wire::render_response(response));
  }
  return bytes;
}

double time_passes_ms(fsr::api::AnalysisService& service,
                      const std::vector<fsr::api::Request>& stream,
                      int passes) {
  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    const auto responses = service.run(stream);
    (void)responses;
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count() /
         passes;
}

/// Best-of-k_reps symbolic() cost of `algebra` per emitted extension, in
/// ns; each rep times `calls` back-to-back calls.
struct SymbolicCost {
  std::size_t extensions = 0;
  double ns_per_extension = 0.0;
};

SymbolicCost symbolic_cost(const fsr::algebra::AlgebraPtr& algebra,
                           int calls) {
  constexpr int k_reps = 7;
  SymbolicCost cost;
  double best_ns = 0.0;
  for (int rep = 0; rep < k_reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int call = 0; call < calls; ++call) {
      cost.extensions = algebra->symbolic().extensions.size();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    if (rep == 0 || ns < best_ns) best_ns = ns;
  }
  cost.ns_per_extension =
      best_ns / (static_cast<double>(calls) *
                 static_cast<double>(cost.extensions));
  return cost;
}

std::string fmt(double value, const char* suffix = "") {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.2f%s", value, suffix);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsr::api;
  namespace bench = fsr::bench;

  std::string json_path;
  std::string thresholds_path;
  if (!bench::parse_metric_args(argc, argv, "bench_service", json_path,
                                thresholds_path)) {
    return 2;
  }

  std::map<std::string, double> metrics;

  ServiceOptions cold_options;
  cold_options.session_cache_capacity = 0;  // reuse disabled: the ablation
  ServiceOptions warm_options;
  warm_options.session_cache_capacity = 16;

  constexpr int k_passes = 5;
  const auto measure_stream =
      [&](const char* label, const std::vector<Request>& stream,
          const char* metric_prefix) {
        // Byte-agreement sanity pass (untimed): warm serving must never
        // change deterministic bytes.
        {
          AnalysisService cold(cold_options);
          AnalysisService warm(warm_options);
          warm.run(stream);  // prime
          if (response_bytes(cold.run(stream)) !=
              response_bytes(warm.run(stream))) {
            std::fprintf(
                stderr,
                "bench_service: warm responses drifted from cold bytes (%s)\n",
                label);
            std::exit(1);
          }
        }
        AnalysisService cold(cold_options);
        const double cold_ms = time_passes_ms(cold, stream, k_passes);
        AnalysisService warm(warm_options);
        warm.run(stream);  // prime the session cache (untimed cold pass)
        const double warm_ms = time_passes_ms(warm, stream, k_passes);
        const double requests = static_cast<double>(stream.size());
        bench::print_row({label, std::to_string(stream.size()), fmt(cold_ms),
                          fmt(warm_ms), fmt(cold_ms / warm_ms, "x"),
                          fmt(1000.0 * requests / warm_ms)},
                         17);
        metrics[std::string(metric_prefix) + "cold_requests_per_sec"] =
            1000.0 * requests / cold_ms;
        metrics[std::string(metric_prefix) + "warm_requests_per_sec"] =
            1000.0 * requests / warm_ms;
        return cold_ms / warm_ms;
      };

  // Solver-effort provenance: registry deltas around the measured streams,
  // recorded alongside the timing metrics so a perf regression in
  // BENCH_pr.json can be read against "did the solver do more work" (an
  // algorithmic change) or not (a constant-factor one).
  const std::vector<std::string> effort_counters = {
      "sat.queries",           "sat.conflicts", "sat.decisions",
      "sat.propagations",      "smt.checks",    "repair.solver_checks"};
  const auto effort_values = [&effort_counters]() {
    std::vector<std::uint64_t> values;
    for (const std::string& name : effort_counters) {
      values.push_back(fsr::obs::registry().counter(name).value());
    }
    return values;
  };
  const std::vector<std::uint64_t> effort_floor = effort_values();

  bench::print_banner(
      "service throughput: cold vs warm-session request streams");
  bench::print_row({"stream", "requests", "cold ms", "warm ms", "speedup",
                    "req/sec (warm)"},
                   17);
  // The gated metric: the hot-query workload the warm-session design
  // exists for (repeated ground-truth requests over a fixed instance set).
  metrics["service_warm_speedup"] =
      measure_stream("ground-truth", query_stream(), "service_");
  // Informational: full repairs re-run the candidate search either way, so
  // warmth only shaves the encode/base construction.
  metrics["service_repair_warm_speedup"] =
      measure_stream("repair", repair_stream(), "service_repair_");

  const std::vector<std::uint64_t> effort_ceiling = effort_values();
  for (std::size_t i = 0; i < effort_counters.size(); ++i) {
    std::string key = "service_effort_" + effort_counters[i];
    for (char& c : key) {
      if (c == '.') c = '_';
    }
    metrics[key] =
        static_cast<double>(effort_ceiling[i] - effort_floor[i]);
  }

  // ---- tracing overhead (informational, not gated) -----------------------
  // The obs contract: a span is one relaxed atomic load when no tracer is
  // installed, and recording stays off the deterministic path when one is.
  // Measured on the warm hot-query stream, where per-request work is
  // smallest and any fixed overhead is most visible.
  {
    AnalysisService service(warm_options);
    service.run(query_stream());  // prime
    const double off_ms = time_passes_ms(service, query_stream(), k_passes);
    fsr::obs::Tracer tracer;
    fsr::obs::install_tracer(&tracer);
    const double on_ms = time_passes_ms(service, query_stream(), k_passes);
    fsr::obs::install_tracer(nullptr);
    const double overhead_pct = 100.0 * (on_ms / off_ms - 1.0);
    bench::print_banner("tracing overhead: warm hot-query stream");
    bench::print_row({"trace off ms", "trace on ms", "overhead"}, 14);
    bench::print_row({fmt(off_ms), fmt(on_ms), fmt(overhead_pct, "%")}, 14);
    metrics["service_trace_overhead_pct"] = overhead_pct;
  }

  // ---- diagnostics overhead (informational, not gated) -------------------
  // The full production-diagnostics stack at once: flight recorder
  // installed, OpenMetrics file writer scraping every 100 ms, and the
  // slow-request watchdog armed. Same contract as tracing: per-request cost
  // is a handful of relaxed atomics plus one lock-free ring write, so the
  // overhead on the warm hot-query stream should be noise.
  {
    AnalysisService service(warm_options);
    service.run(query_stream());  // prime
    const double off_ms = time_passes_ms(service, query_stream(), k_passes);
    fsr::obs::FlightRecorder recorder(1024);
    fsr::obs::install_recorder(&recorder);
    const std::string metrics_path =
        json_path.empty() ? "bench_service_metrics.prom.tmp-probe"
                          : json_path + ".metrics.prom";
    double on_ms = 0.0;
    {
      fsr::obs::MetricsFileWriter::Options writer_options;
      writer_options.path = metrics_path;
      writer_options.interval = std::chrono::milliseconds(100);
      fsr::obs::MetricsFileWriter writer(writer_options);
      on_ms = time_passes_ms(service, query_stream(), k_passes);
    }
    fsr::obs::install_recorder(nullptr);
    std::remove(metrics_path.c_str());
    const double overhead_pct = 100.0 * (on_ms / off_ms - 1.0);
    bench::print_banner(
        "diagnostics overhead: recorder + metrics writer, warm hot-query "
        "stream");
    bench::print_row({"diag off ms", "diag on ms", "overhead"}, 14);
    bench::print_row({fmt(off_ms), fmt(on_ms), fmt(overhead_pct, "%")}, 14);
    metrics["service_diagnostics_overhead_pct"] = overhead_pct;
    metrics["service_recorder_events"] =
        static_cast<double>(recorder.recorded());
  }

  // ---- pool scaling (informational, not gated) ---------------------------
  bench::print_banner("service throughput: worker-pool scaling (warm)");
  bench::print_row({"threads", "ms/stream", "req/sec"}, 14);
  const std::vector<Request> scaling_stream = repair_stream();
  for (const int threads : {1, 2, 4}) {
    ServiceOptions options = warm_options;
    options.threads = threads;
    AnalysisService service(options);
    service.run(scaling_stream);  // prime every worker's cache somewhere
    const double ms = time_passes_ms(service, scaling_stream, k_passes);
    bench::print_row(
        {std::to_string(threads), fmt(ms),
         fmt(1000.0 * static_cast<double>(scaling_stream.size()) / ms)},
        14);
  }

  // ---- fingerprint-affinity sharding ablation (gated) --------------------
  // Concurrent clients over a wide instance set, warm caches scarce: the
  // shape fsr::netserve routes for. Each worker keeps an LRU of 4 warm
  // sessions while the stream cycles 15 distinct instances, so WHERE a
  // request lands decides whether it finds warm state. Consistent-hash
  // affinity pins each instance to one home worker (its session survives);
  // round-robin sprays them, and every worker thrashes its tiny cache
  // building sessions the others already built. The gate is the warm
  // hit-rate ratio between the two policies — the scheduling half of the
  // netserve design, measured end to end.
  {
    std::vector<Request> affinity_stream;
    std::vector<std::string> chain_names;
    for (int length = 2; length <= 8; ++length) {
      chain_names.push_back("good-chain-" + std::to_string(length));
      chain_names.push_back("bad-chain-" + std::to_string(length));
    }
    chain_names.push_back("bad");  // 15 distinct: deliberately not a
                                   // multiple of the worker count, so
                                   // round-robin never self-aligns
    for (const std::string& name : chain_names) {
      affinity_stream.push_back(GroundTruthRequest{
          std::make_shared<const fsr::spp::SppInstance>(
              fsr::spp::gadget_by_name(name)),
          {}});
    }

    struct PolicyResult {
      double hit_rate = 0.0;
      double requests_per_sec = 0.0;
    };
    const auto measure_policy = [&](SchedulePolicy policy) {
      ServiceOptions options;
      options.threads = 8;
      options.session_cache_capacity = 4;  // scarce: 15 instances in play
      options.schedule = policy;
      AnalysisService service(options);
      service.run(affinity_stream);  // prime (one build per instance)
      const ServiceStats before = service.stats();

      constexpr int k_clients = 4;
      constexpr int k_client_passes = 4;
      const auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> clients;
      for (int c = 0; c < k_clients; ++c) {
        clients.emplace_back([&service, &affinity_stream] {
          for (int pass = 0; pass < k_client_passes; ++pass) {
            std::vector<std::future<Response>> futures;
            futures.reserve(affinity_stream.size());
            for (const Request& request : affinity_stream) {
              futures.push_back(service.submit(request));
            }
            for (std::future<Response>& future : futures) future.get();
          }
        });
      }
      for (std::thread& client : clients) client.join();
      const auto stop = std::chrono::steady_clock::now();

      const ServiceStats after = service.stats();
      const double completed =
          static_cast<double>(after.completed - before.completed);
      const double warm_hits =
          static_cast<double>(after.warm_hits - before.warm_hits);
      const double ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
      PolicyResult result;
      result.hit_rate = completed > 0.0 ? warm_hits / completed : 0.0;
      result.requests_per_sec = ms > 0.0 ? 1000.0 * completed / ms : 0.0;
      return result;
    };

    const PolicyResult affinity = measure_policy(SchedulePolicy::affinity);
    const PolicyResult round_robin =
        measure_policy(SchedulePolicy::round_robin);
    // A zero round-robin hit rate is the expected thrash endpoint; clamp
    // so the gated ratio stays finite.
    const double ratio =
        affinity.hit_rate / std::max(round_robin.hit_rate, 0.02);

    bench::print_banner(
        "fingerprint-affinity sharding: warm hit rate, 4 clients x 8 "
        "workers, scarce caches");
    bench::print_row({"policy", "warm hit rate", "req/sec"}, 16);
    bench::print_row({"affinity", fmt(100.0 * affinity.hit_rate, "%"),
                      fmt(affinity.requests_per_sec)},
                     16);
    bench::print_row({"round-robin", fmt(100.0 * round_robin.hit_rate, "%"),
                      fmt(round_robin.requests_per_sec)},
                     16);
    metrics["service_affinity_warm_hit_rate"] = affinity.hit_rate;
    metrics["service_round_robin_warm_hit_rate"] = round_robin.hit_rate;
    metrics["service_affinity_warm_hit_ratio"] = ratio;
    metrics["service_affinity_requests_per_sec"] = affinity.requests_per_sec;
    metrics["service_round_robin_requests_per_sec"] =
        round_robin.requests_per_sec;
  }

  {
    // symbolic() must walk only the declared generation entries. Guideline
    // A declares 5 of its 3 x 3 (label, signature) entries; the Rocketfuel
    // iBGP algebra (ppe4 extraction) declares 282 of 416 x 314. A sparse
    // walk costs about the same per emitted extension on both; a dense
    // labels x signatures walk costs ~460x more per extension on the
    // Rocketfuel table, and the ratio below collapses with it (gated:
    // service_symbolic_sparsity_ratio_min).
    bench::print_banner("symbolic spec: ns per emitted extension");
    bench::print_row({"algebra", "extensions", "ns/extension"}, 16);
    fsr::topology::RocketfuelParams params;
    params.paths_per_egress = 4;
    const SymbolicCost guideline =
        symbolic_cost(fsr::algebra::gao_rexford_guideline_a(), 1000);
    const SymbolicCost rocketfuel = symbolic_cost(
        fsr::spp::algebra_from_spp(
            fsr::topology::build_rocketfuel_ibgp(params).instance),
        1);
    for (const auto& [name, cost] :
         {std::pair{"guideline-A", guideline},
          std::pair{"rocketfuel-ppe4", rocketfuel}}) {
      bench::print_row({name, std::to_string(cost.extensions),
                        fmt(cost.ns_per_extension)},
                       16);
    }
    metrics["service_symbolic_sparsity_ratio"] =
        guideline.ns_per_extension / rocketfuel.ns_per_extension;
    bench::print_row({"guideline-A / rocketfuel-ppe4",
                      fmt(metrics["service_symbolic_sparsity_ratio"])},
                     32);
  }

  if (!json_path.empty() && !bench::write_metrics_file(json_path, metrics)) {
    std::fprintf(stderr, "bench_service: cannot write '%s'\n",
                 json_path.c_str());
    return 1;
  }
  if (!thresholds_path.empty() &&
      !bench::check_thresholds(metrics, thresholds_path, "service_")) {
    return 1;
  }
  return 0;
}
