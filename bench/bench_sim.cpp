// Event-driven simulator throughput: messages/sec and convergence-step
// counts over the gadget library (informational — no CI gate).
//
// Two shapes:
//   * convergence scaling — GOOD-gadget chains of growing size, steady and
//     link-flap schedules, many seeds each: how many activation steps and
//     messages a safe instance of N gadgets takes to quiesce, and how fast
//     the simulator chews through them;
//   * oscillation detection — the unsafe gadgets, where the run's cost is
//     the exact state-repeat search, reported as steps/sec until the cycle
//     is found.
//
// All throughput numbers land in BENCH_pr.json via --json as sim_* metrics
// and are deliberately not threshold-gated (wall-clock throughput on shared
// CI runners is provenance, not a contract). The exception is the detector
// ablation: sim_hash_speedup — the PR-8 full-canonicalisation detector's
// wall clock over the incremental-hash + Brent detector's on the x16
// oscillation workload — IS gated (sim_hash_speedup_min in
// bench/thresholds.json). A speedup ratio of two same-machine runs cancels
// runner noise, and the incremental detector regressing to canonical cost
// is exactly the regression the gate exists to prevent. So is
// sim_collision_cost_ratio (sim_collision_cost_ratio_min): the same
// incremental sweep's wall clock over its wall clock with every state hash
// forced equal, which collapses if locating the first repeat goes back to
// replaying the run once per hash-equal candidate. And so is
// sim_step_cost_ratio (sim_step_cost_ratio_min): the bad gadget's
// nanoseconds per step over the Rocketfuel iBGP instances' (the Figure-3
// gadget embedded in an 87-router topology, 20 seeds each). A machine that
// works on interned ids pays about the same per step on both; one that
// keys its state by node names pays for the larger instance on every
// event, and the ratio falls with it.
//
//   bench_sim [--json FILE] [--check THRESHOLDS]
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/simulator.h"
#include "spp/gadgets.h"
#include "spp/spp.h"
#include "topology/rocketfuel.h"

namespace {

constexpr std::uint64_t k_seed_base = 42;
constexpr std::uint64_t k_seeds_per_instance = 32;

struct SweepStats {
  double wall_ms = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t steps = 0;
  std::uint64_t runs = 0;
  std::uint64_t converged = 0;
  std::uint64_t oscillating = 0;
};

SweepStats sweep(const fsr::spp::SppInstance& instance,
                 const std::string& scenario,
                 const std::string& detector = "incremental",
                 std::uint64_t detector_hash_mask = ~0ULL,
                 std::uint64_t seeds = k_seeds_per_instance) {
  SweepStats stats;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t s = 0; s < seeds; ++s) {
    fsr::sim::SimOptions options;
    options.seed = k_seed_base + s;
    options.scenario = scenario;
    options.detector = detector;
    options.detector_hash_mask = detector_hash_mask;
    const fsr::sim::SimResult run = fsr::sim::simulate(instance, options);
    stats.messages += run.messages;
    stats.steps += run.steps;
    ++stats.runs;
    if (run.converged) ++stats.converged;
    if (run.oscillating) ++stats.oscillating;
  }
  const auto stop = std::chrono::steady_clock::now();
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  return stats;
}

/// The fastest of three steady sweeps over `seeds` seeds (the minimum
/// filters out scheduler noise); its wall clock and step count.
SweepStats best_of_three(const fsr::spp::SppInstance& instance,
                         std::uint64_t seeds) {
  SweepStats best = sweep(instance, "steady", "incremental", ~0ULL, seeds);
  for (int rep = 1; rep < 3; ++rep) {
    const SweepStats again =
        sweep(instance, "steady", "incremental", ~0ULL, seeds);
    if (again.wall_ms < best.wall_ms) best = again;
  }
  return best;
}

std::string fmt(double value, const char* suffix = "") {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.2f%s", value, suffix);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  namespace bench = fsr::bench;

  std::string json_path;
  std::string thresholds_path;
  if (!bench::parse_metric_args(argc, argv, "bench_sim", json_path,
                                thresholds_path)) {
    return 2;
  }

  std::map<std::string, double> metrics;
  double total_messages = 0.0;
  double total_ms = 0.0;

  bench::print_banner(
      "sim convergence scaling: GOOD-gadget chains, 32 seeds each");
  bench::print_row({"instance", "scenario", "conv", "steps/run",
                    "msgs/run", "msgs/sec"},
                   13);
  for (const std::int32_t length : {1, 4, 8, 16}) {
    const fsr::spp::SppInstance chain = fsr::spp::good_gadget_chain(length);
    for (const char* scenario : {"steady", "link-flap"}) {
      const SweepStats stats = sweep(chain, scenario);
      const double runs = static_cast<double>(stats.runs);
      const double msgs_per_sec =
          1000.0 * static_cast<double>(stats.messages) / stats.wall_ms;
      bench::print_row(
          {"good-chain-" + std::to_string(length), scenario,
           std::to_string(stats.converged) + "/" + std::to_string(stats.runs),
           fmt(static_cast<double>(stats.steps) / runs),
           fmt(static_cast<double>(stats.messages) / runs), fmt(msgs_per_sec)},
          13);
      total_messages += static_cast<double>(stats.messages);
      total_ms += stats.wall_ms;
      if (std::string(scenario) == "steady") {
        metrics["sim_chain" + std::to_string(length) + "_steps_per_run"] =
            static_cast<double>(stats.steps) / runs;
        metrics["sim_chain" + std::to_string(length) + "_messages_per_run"] =
            static_cast<double>(stats.messages) / runs;
      }
    }
  }

  bench::print_banner(
      "sim oscillation detection: unsafe gadgets, 32 seeds each");
  bench::print_row({"instance", "osc", "steps/run", "steps/sec"}, 15);
  for (const char* name : {"bad", "disagree", "ibgp-figure3"}) {
    const SweepStats stats =
        sweep(fsr::spp::gadget_by_name(name), "steady");
    const double steps_per_sec =
        1000.0 * static_cast<double>(stats.steps) / stats.wall_ms;
    bench::print_row(
        {name,
         std::to_string(stats.oscillating) + "/" + std::to_string(stats.runs),
         fmt(static_cast<double>(stats.steps) /
             static_cast<double>(stats.runs)),
         fmt(steps_per_sec)},
        15);
    total_messages += static_cast<double>(stats.messages);
    total_ms += stats.wall_ms;
    if (std::string(name) == "bad") {
      metrics["sim_bad_detection_steps_per_sec"] = steps_per_sec;
    }
  }

  bench::print_banner(
      "detector ablation: canonicalisation vs incremental hash, "
      "bad-chain-x16, 32 seeds");
  bench::print_row({"detector", "osc", "wall ms", "speedup"}, 15);
  {
    const fsr::spp::SppInstance big_bad = fsr::spp::bad_gadget_chain(16);
    // Warm-up pass so neither detector pays first-touch allocator costs.
    (void)sweep(big_bad, "steady");
    const SweepStats canonical = sweep(big_bad, "steady", "canonical");
    const SweepStats incremental = sweep(big_bad, "steady", "incremental");
    const double speedup = canonical.wall_ms / incremental.wall_ms;
    bench::print_row({"canonical",
                      std::to_string(canonical.oscillating) + "/" +
                          std::to_string(canonical.runs),
                      fmt(canonical.wall_ms), "1.00"},
                     15);
    bench::print_row({"incremental",
                      std::to_string(incremental.oscillating) + "/" +
                          std::to_string(incremental.runs),
                      fmt(incremental.wall_ms), fmt(speedup, "x")},
                     15);
    metrics["sim_hash_speedup"] = speedup;
    total_messages += static_cast<double>(incremental.messages);
    total_ms += incremental.wall_ms;

    // Collision cost: the same incremental sweep with every state hash
    // forced equal (the detector_hash_mask test seam), so every post-churn
    // step is a hash match the mu search must verify and reject. A
    // lockstep search pays one step and one canonical render per rejected
    // candidate; a search that replays from the start per candidate is
    // quadratic, and the honest/masked ratio collapses with it (gated:
    // sim_collision_cost_ratio_min).
    const SweepStats masked = sweep(big_bad, "steady", "incremental", 0);
    const double ratio = incremental.wall_ms / masked.wall_ms;
    bench::print_row({"incr. masked",
                      std::to_string(masked.oscillating) + "/" +
                          std::to_string(masked.runs),
                      fmt(masked.wall_ms), fmt(ratio, "x")},
                     15);
    metrics["sim_collision_cost_ratio"] = ratio;
  }

  bench::print_banner(
      "sim step cost: bad gadget vs Rocketfuel iBGP + Figure-3 gadget "
      "(ppe4), 20 seeds, best of 3");
  bench::print_row({"instance", "osc", "steps/run", "ns/step"}, 15);
  {
    const auto ns_per_step = [](const SweepStats& stats) {
      return 1e6 * stats.wall_ms / static_cast<double>(stats.steps);
    };
    const SweepStats bad =
        best_of_three(fsr::spp::gadget_by_name("bad"), k_seeds_per_instance);
    bench::print_row({"bad",
                      std::to_string(bad.oscillating) + "/" +
                          std::to_string(bad.runs),
                      fmt(static_cast<double>(bad.steps) /
                          static_cast<double>(bad.runs)),
                      fmt(ns_per_step(bad))},
                     15);
    SweepStats rocketfuel;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      fsr::topology::RocketfuelParams params;
      params.seed = seed;
      params.embed_gadget = true;
      params.paths_per_egress = 4;
      const SweepStats stats = best_of_three(
          fsr::topology::build_rocketfuel_ibgp(params).instance, 20);
      bench::print_row({"rf" + std::to_string(seed) + "+gadget",
                        std::to_string(stats.oscillating) + "/" +
                            std::to_string(stats.runs),
                        fmt(static_cast<double>(stats.steps) /
                            static_cast<double>(stats.runs)),
                        fmt(ns_per_step(stats))},
                       15);
      rocketfuel.wall_ms += stats.wall_ms;
      rocketfuel.steps += stats.steps;
    }
    metrics["sim_rocketfuel_ns_per_step"] = ns_per_step(rocketfuel);
    metrics["sim_step_cost_ratio"] = ns_per_step(bad) / ns_per_step(rocketfuel);
    bench::print_row({"ratio", "", "", fmt(metrics["sim_step_cost_ratio"])},
                     15);
  }

  metrics["sim_messages_per_sec"] = 1000.0 * total_messages / total_ms;
  bench::print_banner("sim aggregate");
  bench::print_row({"messages/sec (all sweeps)",
                    fmt(metrics["sim_messages_per_sec"])},
                   28);

  if (!json_path.empty() && !bench::write_metrics_file(json_path, metrics)) {
    std::fprintf(stderr, "bench_sim: cannot write '%s'\n", json_path.c_str());
    return 1;
  }
  if (!thresholds_path.empty() &&
      !bench::check_thresholds(metrics, thresholds_path, "sim_")) {
    return 1;
  }
  return 0;
}
