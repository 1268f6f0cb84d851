// Ground-truth oracle ablation: brute-force enumeration vs the CDCL
// stable-assignment search (src/groundtruth/), over the gadget library,
// the BAD-gadget chain family (x4/x8/x16), and random-SPP fuzz instances
// sized so the enumerator cannot finish.
//
// Enumeration cost is measured as the raw budgeted scan (2^20 states); on
// the larger instances the scan exhausts the budget without a verdict
// (bad-chain-x16 alone has 3^48 candidate states), so its time is a LOWER
// BOUND on true enumeration cost while sat-search's answer is exact — the
// reported speedup floors the real one. Everything runs at a fixed seed;
// the CI bench-regression gate consumes the --json metrics and enforces
// the floors in bench/thresholds.json via --check.
//
//   bench_groundtruth [--json FILE] [--check THRESHOLDS]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "groundtruth/engine.h"
#include "spp/gadgets.h"
#include "spp/random_instance.h"

namespace {

constexpr std::uint64_t k_seed = 42;

template <typename Fn>
double time_run_ms(const Fn& run) {
  // One probe run sizes the repetition count; slow cases keep the probe
  // measurement itself so multi-second enumerations run exactly once.
  const auto probe_start = std::chrono::steady_clock::now();
  run();
  const double probe_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - probe_start)
                              .count();
  if (probe_ms > 50.0) return probe_ms;
  const int reps = probe_ms > 5.0 ? 5 : 25;
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) run();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
             .count() /
         reps;
}

std::string fmt(double value, const char* suffix = "") {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f%s", value, suffix);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsr;

  std::string json_path;
  std::string thresholds_path;
  if (!bench::parse_metric_args(argc, argv, "bench_groundtruth", json_path,
                                thresholds_path)) {
    return 2;
  }

  std::vector<std::pair<std::string, spp::SppInstance>> workload;
  workload.emplace_back("good", spp::good_gadget());
  workload.emplace_back("bad", spp::bad_gadget());
  workload.emplace_back("disagree", spp::disagree_gadget());
  workload.emplace_back("ibgp-figure3", spp::ibgp_figure3_gadget());
  workload.emplace_back("ibgp-fixed", spp::ibgp_figure3_fixed());
  for (const int length : {4, 8, 16}) {
    workload.emplace_back("bad-chain-x" + std::to_string(length),
                          spp::bad_gadget_chain(length));
  }
  {
    // Fuzz sizes the enumerator cannot finish: ~12 nodes with dense
    // rankings put the state space far beyond the 2^22 budget.
    spp::RandomSppSweep sweep;
    sweep.min_nodes = 12;
    sweep.max_nodes = 12;
    sweep.extra_edge_probability = 0.4;
    sweep.paths_per_node = 5;
    for (int i = 0; i < 3; ++i) {
      workload.emplace_back(
          "fuzz-large-" + std::to_string(i),
          spp::random_spp_instance("fuzz-large-" + std::to_string(i),
                                        k_seed + static_cast<std::uint64_t>(i),
                                        sweep));
    }
  }

  groundtruth::Options options;
  options.max_solutions = 8;
  // 2^20 states: enough for bad-chain-x4 (3^12 states) to finish exactly,
  // small enough that the capped scans keep the bench CI-sized. The capped
  // cases' reported speedups remain lower bounds either way.
  options.max_states = std::uint64_t{1} << 20;
  const auto sat_engine =
      groundtruth::make_engine(groundtruth::Mode::sat_search, options);

  bench::print_banner(
      "ground truth: enumerate vs conflict-driven sat-search");
  bench::print_row({"instance", "enum ms", "enum verdict", "sat ms",
                    "sat verdict", "speedup"},
                   16);

  std::map<std::string, double> metrics;
  double enum_total = 0.0;
  double sat_total = 0.0;
  for (const auto& [name, instance] : workload) {
    // Enumeration cost is the raw budgeted scan (spp layer): the engine's
    // enumerate backend pre-rejects oversized instances in O(nodes), which
    // is the right production behaviour but would make the capped cases'
    // lower bound trivial. The scan is what "keep enumerating anyway"
    // actually costs.
    const spp::BudgetedEnumeration scan =
        spp::enumerate_stable_assignments_budgeted(instance,
                                                   options.max_states,
                                                   options.max_solutions);
    const auto sat_result = sat_engine->analyze(instance);
    const double enum_ms = time_run_ms([&] {
      (void)spp::enumerate_stable_assignments_budgeted(
          instance, options.max_states, options.max_solutions);
    });
    const double sat_ms =
        time_run_ms([&] { (void)sat_engine->analyze(instance); });
    enum_total += enum_ms;
    sat_total += sat_ms;
    const double speedup = enum_ms / sat_ms;

    const auto verdict = [](const groundtruth::Result& result) {
      if (!result.decided) return std::string("gave up");
      std::string out = result.has_stable
                            ? "stable x" + std::to_string(result.count)
                            : "no stable";
      if (result.has_stable && !result.count_exact) out += "+";
      return out;
    };
    std::string enum_verdict;
    if (!scan.assignments.empty()) {
      enum_verdict = "stable x" + std::to_string(scan.assignments.size());
      if (!scan.complete) enum_verdict += "+";
    } else {
      enum_verdict = scan.complete ? "no stable" : "gave up";
    }
    bench::print_row({name, fmt(enum_ms), enum_verdict, fmt(sat_ms),
                      verdict(sat_result), fmt(speedup, "x")},
                     16);
    if (sat_result.decided && !scan.complete) {
      std::printf(
          "  ^ enumeration scanned %llu states without a verdict; "
          "sat-search decided exactly in %llu conflicts "
          "(speedup is a lower bound)\n",
          static_cast<unsigned long long>(scan.states_scanned),
          static_cast<unsigned long long>(sat_result.conflicts));
    }
    metrics["groundtruth_" + name + "_speedup"] = speedup;
  }
  const double aggregate = enum_total / sat_total;
  metrics["groundtruth_aggregate_speedup"] = aggregate;
  std::printf("aggregate: %.1fx (enumerate %.1f ms vs sat-search %.1f ms)\n",
              aggregate, enum_total, sat_total);

  if (!json_path.empty() && !bench::write_metrics_file(json_path, metrics)) {
    std::fprintf(stderr, "bench_groundtruth: cannot write '%s'\n",
                 json_path.c_str());
    return 1;
  }
  if (!thresholds_path.empty() &&
      !bench::check_thresholds(metrics, thresholds_path, "groundtruth_")) {
    return 1;
  }
  return 0;
}
