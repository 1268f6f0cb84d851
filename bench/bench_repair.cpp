// Repair-engine throughput: repairs/sec on the BAD-gadget family and
// random-SPP fuzz instances, plus two ablations at a fixed seed so both
// paths see the exact same work and the speedup isolates the machinery:
//
//   * solver re-checks — incremental Context::check(assumptions) over one
//     difference-engine base vs a full solve per re-check;
//   * oracle validation — ONE persistent StableSatSession answering every
//     candidate through clause-group CNF deltas vs the PR-3 behaviour of
//     re-encoding each edited instance from scratch (the bad-chain family:
//     the instance grows linearly while each candidate's delta stays one
//     node's ranking block).
//
//   bench_repair [--json FILE] [--check THRESHOLDS]
//
// --json writes the aggregate speedups (and per-instance ratios) as flat
// metrics; --check enforces the floors in bench/thresholds.json — the CI
// bench-regression gate.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fsr/incremental_session.h"
#include "groundtruth/stable_sat.h"
#include "repair/edit.h"
#include "repair/repair_engine.h"
#include "spp/gadgets.h"
#include "spp/random_instance.h"
#include "spp/translate.h"

namespace {

constexpr std::uint64_t k_seed = 42;

double time_repairs_ms(const fsr::spp::SppInstance& instance,
                       const fsr::repair::RepairOptions& options, int reps) {
  const fsr::repair::RepairEngine engine(options);
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    const auto report = engine.repair(instance);
    (void)report;
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count() /
         reps;
}

std::string fmt(double value, const char* suffix = "") {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.2f%s", value, suffix);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsr;

  std::string json_path;
  std::string thresholds_path;
  if (!bench::parse_metric_args(argc, argv, "bench_repair", json_path,
                                thresholds_path)) {
    return 2;
  }

  std::vector<std::pair<std::string, spp::SppInstance>> workload;
  workload.emplace_back("bad", spp::bad_gadget());
  workload.emplace_back("disagree", spp::disagree_gadget());
  workload.emplace_back("ibgp-figure3", spp::ibgp_figure3_gadget());
  for (const int length : {4, 8, 16}) {
    workload.emplace_back("bad-chain-x" + std::to_string(length),
                          spp::bad_gadget_chain(length));
  }
  {
    spp::RandomSppSweep sweep;
    sweep.extra_edge_probability = 0.5;
    sweep.paths_per_node = 4;
    for (int i = 0; i < 4; ++i) {
      workload.emplace_back(
          "fuzz-" + std::to_string(i),
          spp::random_spp_instance("fuzz-" + std::to_string(i),
                                        k_seed + static_cast<std::uint64_t>(i),
                                        sweep));
    }
  }

  // ---- full pipeline: counterexample search + ground-truth validation ----
  bench::print_banner("repair throughput: full pipeline (ground truth on)");
  bench::print_row({"instance", "repaired", "checks", "ms/repair",
                    "repairs/sec"},
                   16);
  double total_ms = 0.0;
  std::size_t repaired = 0;
  for (const auto& [name, instance] : workload) {
    repair::RepairOptions options;
    const repair::RepairEngine engine(options);
    const auto report = engine.repair(instance);
    const int reps = report.wall_ms > 20.0 ? 3 : 20;
    const double ms = time_repairs_ms(instance, options, reps);
    total_ms += ms;
    if (report.repaired()) ++repaired;
    bench::print_row({name,
                      report.already_safe ? "safe"
                      : report.repaired() ? "yes"
                                          : "no",
                      std::to_string(report.solver_checks), fmt(ms),
                      fmt(1000.0 / ms)},
                     16);
  }
  std::printf("%zu/%zu instances repaired, %.1f repairs/sec aggregate\n",
              repaired, workload.size(),
              1000.0 * static_cast<double>(workload.size()) / total_ms);

  // ---- ablation: incremental vs from-scratch re-checks -------------------
  // The repair loop's hot path: one session, hundreds of near-identical
  // candidate re-checks (the unsat core retracted, varying keep-subsets).
  // Incremental = Context::check(assumptions) over the shared engine base;
  // from-scratch = one full solve per re-check. Same check sequence, same
  // answers; only the solver strategy differs.
  bench::print_banner(
      "repair ablation: incremental vs from-scratch re-checks");
  bench::print_row({"instance", "constraints", "incremental ms", "scratch ms",
                    "speedup", "checks/sec (inc)"},
                   17);
  constexpr int k_recheck_rounds = 500;
  double incremental_total = 0.0;
  double scratch_total = 0.0;
  std::map<std::string, double> metrics;
  for (const auto& [name, instance] : workload) {
    const auto algebra = spp::algebra_from_spp(instance);
    const auto time_rechecks = [&](bool incremental) {
      // Session configured exactly as the repair engine configures it
      // (status-only checks; models skipped where the API allows).
      IncrementalSafetySession::Options options;
      options.incremental = incremental;
      options.extract_models = false;
      IncrementalSafetySession session(algebra->symbolic(),
                                       MonotonicityMode::strict, options);
      const auto initial = session.check({});
      std::vector<std::size_t> core = initial.core;
      if (core.empty()) {
        // Safe instance: exercise the same loop over the first constraints.
        for (std::size_t i = 0; i < 4 && i < session.constraint_count(); ++i) {
          core.push_back(i);
        }
      }
      session.make_variable(core);
      const auto start = std::chrono::steady_clock::now();
      for (int round = 0; round < k_recheck_rounds; ++round) {
        // Candidate shape: all core members but one, cycling.
        std::vector<std::size_t> keep;
        for (std::size_t j = 0; j < core.size(); ++j) {
          if (j != static_cast<std::size_t>(round) % core.size()) {
            keep.push_back(core[j]);
          }
        }
        const auto result = session.check(keep);
        (void)result;
      }
      const auto stop = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::milli>(stop - start).count();
    };
    const double inc_ms = time_rechecks(true);
    const double scr_ms = time_rechecks(false);
    incremental_total += inc_ms;
    scratch_total += scr_ms;
    metrics["repair_" + name + "_speedup"] = scr_ms / inc_ms;
    IncrementalSafetySession probe = SafetyAnalyzer::open_incremental(
        *algebra, MonotonicityMode::strict);
    bench::print_row({name, std::to_string(probe.constraint_count()),
                      fmt(inc_ms), fmt(scr_ms), fmt(scr_ms / inc_ms, "x"),
                      fmt(1000.0 * k_recheck_rounds / inc_ms)},
                     17);
  }
  std::printf(
      "aggregate: %.2fx speedup over %d re-checks/instance (%.1f ms -> "
      "%.1f ms)\n",
      scratch_total / incremental_total, k_recheck_rounds, scratch_total,
      incremental_total);
  metrics["repair_incremental_speedup"] = scratch_total / incremental_total;

  // ---- oracle ablation: incremental session vs scratch re-encodes --------
  // The candidate-validation workload the repair engine hands its oracle:
  // every single demote/drop edit across the instance (capped), validated
  // (a) through one persistent StableSatSession — construction included,
  // since a repair run pays it exactly once — and (b) by re-encoding each
  // edited instance from scratch, the PR 3 baseline. Verdicts are checked
  // to agree before anything is timed.
  bench::print_banner(
      "oracle ablation: incremental session vs scratch candidate validation");
  bench::print_row({"instance", "candidates", "session ms", "scratch ms",
                    "speedup", "validations/sec (inc)"},
                   18);
  constexpr std::size_t k_max_oracle_candidates = 64;
  constexpr std::size_t k_oracle_solutions = 64;
  double oracle_incremental_total = 0.0;
  double oracle_scratch_total = 0.0;
  for (const int length : {4, 8, 16}) {
    const std::string name = "bad-chain-x" + std::to_string(length);
    const spp::SppInstance instance = spp::bad_gadget_chain(length);

    struct OracleCandidate {
      groundtruth::RankingDelta delta;
      spp::SppInstance edited;
    };
    std::vector<OracleCandidate> candidates;
    for (const std::string& node : instance.nodes()) {
      const std::vector<spp::Path>& ranked = instance.permitted(node);
      for (std::size_t rank = 0;
           rank < ranked.size() &&
           candidates.size() < k_max_oracle_candidates;
           ++rank) {
        for (const repair::EditKind kind :
             {repair::EditKind::demote_path, repair::EditKind::drop_path}) {
          if (kind == repair::EditKind::demote_path &&
              rank + 1 == ranked.size()) {
            continue;  // already last
          }
          const repair::PolicyEdit edit{kind, node, ranked[rank], {}};
          auto edited = repair::apply_edits(instance, {edit});
          if (!edited.has_value()) continue;
          candidates.push_back(OracleCandidate{
              groundtruth::RankingDelta{node, edited->permitted(node)},
              std::move(*edited)});
          if (candidates.size() >= k_max_oracle_candidates) break;
        }
      }
    }

    // Agreement sanity pass (untimed): same verdict and count everywhere.
    {
      fsr::groundtruth::StableSatSession session(instance);
      for (const OracleCandidate& candidate : candidates) {
        const auto incremental =
            session.analyze({candidate.delta}, k_oracle_solutions);
        const auto scratch = fsr::groundtruth::solve_stable_assignments(
            candidate.edited, k_oracle_solutions);
        if (incremental.has_stable != scratch.has_stable ||
            incremental.count != scratch.count) {
          std::fprintf(stderr,
                       "bench_repair: oracle disagreement on %s (%s)\n",
                       name.c_str(), candidate.delta.node.c_str());
          return 1;
        }
      }
    }

    const int reps = length >= 16 ? 3 : 10;
    const auto time_session_ms = [&]() {
      const auto start = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) {
        fsr::groundtruth::StableSatSession session(instance);
        for (const OracleCandidate& candidate : candidates) {
          const auto result =
              session.analyze({candidate.delta}, k_oracle_solutions);
          (void)result;
        }
      }
      const auto stop = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::milli>(stop - start).count() /
             reps;
    };
    const auto time_scratch_ms = [&]() {
      const auto start = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) {
        for (const OracleCandidate& candidate : candidates) {
          const auto result = fsr::groundtruth::solve_stable_assignments(
              candidate.edited, k_oracle_solutions);
          (void)result;
        }
      }
      const auto stop = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::milli>(stop - start).count() /
             reps;
    };
    const double inc_ms = time_session_ms();
    const double scr_ms = time_scratch_ms();
    oracle_incremental_total += inc_ms;
    oracle_scratch_total += scr_ms;
    metrics["repair_oracle_" + name + "_speedup"] = scr_ms / inc_ms;
    bench::print_row(
        {name, std::to_string(candidates.size()), fmt(inc_ms), fmt(scr_ms),
         fmt(scr_ms / inc_ms, "x"),
         fmt(1000.0 * static_cast<double>(candidates.size()) / inc_ms)},
        18);
  }
  std::printf(
      "aggregate: %.2fx candidate-validation speedup (%.1f ms -> %.1f ms)\n",
      oracle_scratch_total / oracle_incremental_total, oracle_scratch_total,
      oracle_incremental_total);
  metrics["repair_oracle_incremental_speedup"] =
      oracle_scratch_total / oracle_incremental_total;

  if (!json_path.empty() && !bench::write_metrics_file(json_path, metrics)) {
    std::fprintf(stderr, "bench_repair: cannot write '%s'\n",
                 json_path.c_str());
    return 1;
  }
  if (!thresholds_path.empty() &&
      !bench::check_thresholds(metrics, thresholds_path, "repair_")) {
    return 1;
  }
  return 0;
}
