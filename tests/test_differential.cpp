// Differential fuzz harness: three independent stable-paths oracles swept
// over 300+ seeded random SPP instances (plus random drop/demote edit
// schedules per instance) and held to agreement —
//
//   1. incremental-assumption SAT (StableSatSession: persistent solver,
//      clause groups + assumptions, per-edit CNF deltas);
//   2. scratch SAT (solve_stable_assignments: full re-encode per query);
//   3. capped brute-force enumeration (the seed toolkit's oracle);
//
// and the two SPVP semantics the service runs held to the oracles, the
// way a protocol implementation is checked against its formal model:
//
//   * fsr::sim, the event-driven simulator (base and edited instances);
//   * the generated NDlog implementation under emulate_spp (base
//     instances).
//
// Checked per instance: existence verdict, exact model count (wherever a
// backend's bound permits exactness), the full canonical witness set
// between the two SAT paths, witness validity under the stability
// predicate, and every converged or quiesced protocol run ending in a
// stable assignment of the SAT set — never on an instance without one,
// and on the unique one where exactly one exists. Any disagreement fails
// with the instance's generator seed and a full dump, so every finding
// reproduces from one integer.
//
// The sweep seed base comes from FSR_FUZZ_SEED (default 9500) — CI pins it
// so the fuzz lane is reproducible run over run. Runs under the `fuzz`
// ctest label: `ctest -L fuzz`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "fsr/emulation.h"
#include "groundtruth/engine.h"
#include "groundtruth/stable_sat.h"
#include "repair/edit.h"
#include "sim/simulator.h"
#include "spp/gadgets.h"
#include "spp/random_instance.h"
#include "spp/spp.h"
#include "util/rng.h"
#include "util/strings.h"

namespace fsr::groundtruth {
namespace {

constexpr std::size_t k_instances = 300;
constexpr std::size_t k_edit_schedules = 3;  // random edit queries/instance
constexpr std::size_t k_solution_bound = std::size_t{1} << 12;

std::uint64_t fuzz_seed_base() {
  const char* env = std::getenv("FSR_FUZZ_SEED");
  if (env == nullptr || *env == '\0') return 9500;
  const std::optional<std::uint64_t> seed = util::parse_u64(env);
  if (!seed.has_value()) {
    ADD_FAILURE() << "FSR_FUZZ_SEED is not an integer: '" << env << "'";
    return 9500;
  }
  return *seed;
}

/// Everything needed to reproduce a finding by hand.
std::string dump_instance(const spp::SppInstance& instance) {
  std::string out = "instance " + instance.name() + "\n";
  out += "  edges:";
  for (const auto& [u, v] : instance.edges()) out += " " + u + "-" + v;
  out += "\n";
  for (const std::string& node : instance.nodes()) {
    out += "  " + node + ":";
    for (const spp::Path& path : instance.permitted(node)) {
      out += " " + spp::path_name(path);
    }
    out += "\n";
  }
  return out;
}

void expect_same_search(const StableSearchResult& incremental,
                        const StableSearchResult& scratch,
                        const spp::SppInstance& instance) {
  ASSERT_TRUE(scratch.decided) << dump_instance(instance);
  ASSERT_TRUE(incremental.decided) << dump_instance(instance);
  EXPECT_EQ(incremental.has_stable, scratch.has_stable)
      << dump_instance(instance);
  EXPECT_EQ(incremental.count, scratch.count) << dump_instance(instance);
  EXPECT_EQ(incremental.count_exact, scratch.count_exact)
      << dump_instance(instance);
  EXPECT_EQ(incremental.assignments, scratch.assignments)
      << dump_instance(instance);
  for (const spp::Assignment& assignment : incremental.assignments) {
    EXPECT_TRUE(spp::is_stable_assignment(instance, assignment))
        << dump_instance(instance);
  }
}

void expect_enumeration_agrees(const StableSearchResult& sat,
                               const spp::SppInstance& instance) {
  Options options;
  options.max_states = std::uint64_t{1} << 18;
  options.max_solutions = k_solution_bound;
  const auto enumerate = make_engine(Mode::enumerate, options);
  const Result scan = enumerate->analyze(instance);
  if (!scan.decided) return;  // state space beyond the cap: nothing to check
  EXPECT_EQ(scan.has_stable, sat.has_stable) << dump_instance(instance);
  if (scan.count_exact && sat.count_exact) {
    EXPECT_EQ(scan.count, sat.count) << dump_instance(instance);
  }
  if (scan.witness.has_value()) {
    EXPECT_TRUE(spp::is_stable_assignment(instance, *scan.witness))
        << dump_instance(instance);
    if (sat.count_exact && !sat.assignments.empty()) {
      // Both canonical: the least witness must coincide.
      EXPECT_EQ(*scan.witness, sat.assignments.front())
          << dump_instance(instance);
    }
  }
}

/// A protocol run's fixed point held to the SAT oracle: stable, in the
/// enumerated set when the count is exact (so on the unique assignment
/// when there is exactly one), and never on an instance without one.
void expect_fixed_point_agrees(const StableSearchResult& sat,
                               const spp::SppInstance& instance,
                               const spp::Assignment& fixed_point,
                               const char* semantics) {
  EXPECT_TRUE(spp::is_stable_assignment(instance, fixed_point))
      << semantics << " settled on an unstable assignment\n"
      << dump_instance(instance);
  EXPECT_TRUE(sat.has_stable)
      << semantics << " settled although no stable assignment exists\n"
      << dump_instance(instance);
  if (!sat.count_exact) return;
  EXPECT_NE(std::find(sat.assignments.begin(), sat.assignments.end(),
                      fixed_point),
            sat.assignments.end())
      << semantics << " fixed point missing from the SAT stable set\n"
      << dump_instance(instance);
  if (sat.count == 1) {
    EXPECT_EQ(fixed_point, sat.assignments.front())
        << semantics << " missed the unique stable assignment\n"
        << dump_instance(instance);
  }
}

void expect_sim_agrees(const StableSearchResult& sat,
                       const spp::SppInstance& instance,
                       std::uint64_t sim_seed) {
  sim::SimOptions options;
  options.seed = sim_seed;
  const sim::SimResult run = sim::simulate(instance, options);
  // Oscillation or cutoff proves nothing by itself: a multi-stable
  // instance may cycle under one timing and settle under another.
  if (run.converged) {
    expect_fixed_point_agrees(sat, instance, run.final_assignment,
                              "fsr::sim");
  }
}

/// Runs the generated implementation (100 ms batches, 60 s emulated cap);
/// true when it quiesced.
bool expect_emulation_agrees(const StableSearchResult& sat,
                             const spp::SppInstance& instance,
                             std::uint64_t emulation_seed) {
  EmulationOptions options;
  options.batch_interval = 100 * net::k_millisecond;
  options.max_time = 60 * net::k_second;
  options.seed = emulation_seed;
  const EmulationResult run = emulate_spp(instance, options);
  if (!run.quiesced) return false;
  spp::Assignment fixed_point;
  for (const auto& [node, route] : run.best_routes) {
    if (node != instance.destination()) fixed_point.emplace(node, route.second);
  }
  expect_fixed_point_agrees(sat, instance, fixed_point, "emulate_spp");
  return true;
}

/// A seeded random drop or demote edit applicable to `instance`, or
/// nullopt when the instance offers none (no node has editable paths).
std::optional<repair::PolicyEdit> random_edit(const spp::SppInstance& instance,
                                              util::Rng& rng) {
  const std::vector<std::string> nodes = instance.nodes();
  if (nodes.empty()) return std::nullopt;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::string& node = nodes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    const std::vector<spp::Path>& ranked = instance.permitted(node);
    if (ranked.empty()) continue;
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ranked.size()) - 1));
    const bool demote = rng.chance(0.5);
    if (demote && pick + 1 == ranked.size()) continue;  // already last
    if (!demote && instance.permitted_path_count() == 1) continue;
    return repair::PolicyEdit{demote ? repair::EditKind::demote_path
                                     : repair::EditKind::drop_path,
                              node, ranked[pick], {}};
  }
  return std::nullopt;
}

TEST(Differential, OraclesAndProtocolRunsAgreeAcrossTheFuzzSweep) {
  const std::uint64_t base = fuzz_seed_base();

  spp::RandomSppSweep plain;  // defaults: 3-6 nodes, sparse
  spp::RandomSppSweep dense;  // conflict-heavy (repair-fuzz shape)
  dense.extra_edge_probability = 0.5;
  dense.paths_per_node = 4;

  std::size_t with_stable = 0;
  std::size_t multi_stable = 0;
  std::size_t edited_queries = 0;
  std::size_t quiesced = 0;
  std::size_t multi_stable_unquiesced = 0;
  for (std::size_t i = 0; i < k_instances; ++i) {
    const std::uint64_t seed = base + i;
    const spp::RandomSppSweep& sweep = i % 2 == 0 ? plain : dense;
    const spp::SppInstance instance = spp::random_spp_instance(
        "differential-" + std::to_string(seed), seed, sweep);
    SCOPED_TRACE("generator seed " + std::to_string(seed) +
                 (i % 2 == 0 ? " (plain sweep)" : " (dense sweep)"));

    const StableSearchResult scratch =
        solve_stable_assignments(instance, k_solution_bound);
    StableSatSession session(instance);
    const StableSearchResult incremental =
        session.analyze({}, k_solution_bound);
    expect_same_search(incremental, scratch, instance);
    expect_enumeration_agrees(scratch, instance);
    expect_sim_agrees(scratch, instance, /*sim_seed=*/seed);
    const bool settled = expect_emulation_agrees(scratch, instance, seed);
    if (settled) ++quiesced;
    if (scratch.has_stable) ++with_stable;
    if (scratch.count > 1) ++multi_stable;
    if (scratch.count > 1 && !settled) ++multi_stable_unquiesced;

    // Random edit schedules: the same persistent session answers each
    // edited configuration via a CNF delta; scratch re-encodes the edited
    // instance. Base round-trips between edits catch state leaks.
    util::Rng edit_rng(seed ^ 0xed17u);
    for (std::size_t round = 0; round < k_edit_schedules; ++round) {
      const auto edit = random_edit(instance, edit_rng);
      if (!edit.has_value()) break;
      const auto edited = repair::apply_edits(instance, {*edit});
      if (!edited.has_value()) continue;  // edit emptied the instance
      SCOPED_TRACE("edit: " + edit->describe());
      RankingDelta delta;
      delta.node = edit->node;
      delta.ranked = edited->permitted(edit->node);
      const StableSearchResult edited_scratch =
          solve_stable_assignments(*edited, k_solution_bound);
      const StableSearchResult edited_incremental =
          session.analyze({delta}, k_solution_bound);
      expect_same_search(edited_incremental, edited_scratch, *edited);
      expect_sim_agrees(edited_scratch, *edited,
                        /*sim_seed=*/seed + round + 1);
      ++edited_queries;
    }
    const StableSearchResult back = session.analyze({}, k_solution_bound);
    expect_same_search(back, scratch, instance);
  }

  // The sweep must actually exercise the interesting shapes: stable and
  // multi-stable instances, a healthy number of edited queries, mostly
  // quiescing emulations (so the fixed-point checks bite), and at least
  // one multi-stable instance the generated implementation never settles
  // — the declared semantics of docs/ARCHITECTURE.md ("One SPVP
  // semantics"), which a sweep of only quiescing runs would not cover.
  EXPECT_GT(with_stable, k_instances / 2);
  EXPECT_GT(multi_stable, 0u);
  EXPECT_GT(edited_queries, k_instances);
  EXPECT_GT(quiesced, k_instances / 2);
  EXPECT_GT(multi_stable_unquiesced, 0u);
}

TEST(Differential, EventSimulatorFixedPointsMatchTheSatOracle) {
  // The event-driven simulator (src/sim) against oracle #1: 100 seeds per
  // library gadget, cycling through every churn scenario. Every
  // terminating run's fixed point must be a member of the SAT-enumerated
  // stable set, and an instance the oracle proves has NO stable assignment
  // must never terminate (the simulator's exact cycle detection has to
  // catch it instead).
  const std::uint64_t base = fuzz_seed_base();
  constexpr std::size_t k_sim_seeds = 100;
  const std::vector<std::string> gadgets = {
      "good",       "bad",          "disagree",     "ibgp-figure3",
      "ibgp-figure3-fixed", "good-chain-3", "bad-chain-2"};
  const std::vector<std::string>& scenarios = sim::scenario_names();

  std::size_t terminating = 0;
  std::size_t oscillating = 0;
  for (const std::string& name : gadgets) {
    const spp::SppInstance instance = spp::gadget_by_name(name);
    const StableSearchResult sat =
        solve_stable_assignments(instance, k_solution_bound);
    ASSERT_TRUE(sat.decided) << dump_instance(instance);
    for (std::size_t s = 0; s < k_sim_seeds; ++s) {
      sim::SimOptions options;
      options.seed = base + s;
      options.scenario = scenarios[s % scenarios.size()];
      const sim::SimResult run = sim::simulate(instance, options);
      SCOPED_TRACE(name + " seed " + std::to_string(options.seed) + " (" +
                   options.scenario + ")");
      // Finite deterministic transition system + generous step cap: every
      // run decides one way or the other.
      ASSERT_TRUE(run.converged || run.oscillating) << dump_instance(instance);
      if (run.converged) {
        ++terminating;
        EXPECT_TRUE(run.fixed_point_stable) << dump_instance(instance);
        EXPECT_TRUE(spp::is_stable_assignment(instance, run.final_assignment))
            << dump_instance(instance);
        EXPECT_TRUE(sat.has_stable) << dump_instance(instance);
        if (sat.count_exact) {
          EXPECT_NE(std::find(sat.assignments.begin(), sat.assignments.end(),
                              run.final_assignment),
                    sat.assignments.end())
              << "simulated fixed point missing from the SAT stable set\n"
              << dump_instance(instance);
        }
      } else {
        ++oscillating;
        EXPECT_GT(run.cycle_length, 0u) << dump_instance(instance);
      }
      if (!sat.has_stable) {
        EXPECT_TRUE(run.oscillating)
            << "run terminated on an instance with no stable assignment\n"
            << dump_instance(instance);
      }
    }
  }
  // The sweep saw both behaviours in volume (BAD and its chain alone
  // guarantee 200 oscillations; the safe gadgets guarantee termination).
  EXPECT_GE(terminating, 3 * k_sim_seeds);
  EXPECT_GE(oscillating, 2 * k_sim_seeds);
}

TEST(Differential, IncrementalDetectorIsByteIdenticalToCanonical) {
  // The incremental-hash + Brent detector against the PR-8 full
  // canonicalisation detector: 100 seeds per library gadget cycling through
  // every churn scenario, every SimResult field AND the per-event trace
  // byte-identical. This is the property that lets the cache layer share
  // records across detectors (campaign/cache.cpp keys sim outcomes without
  // the detector axis).
  const std::uint64_t base = fuzz_seed_base();
  constexpr std::size_t k_sim_seeds = 100;
  const std::vector<std::string> gadgets = {
      "good",       "bad",          "disagree",     "ibgp-figure3",
      "ibgp-figure3-fixed", "good-chain-3", "bad-chain-2"};
  const std::vector<std::string>& scenarios = sim::scenario_names();
  const std::vector<std::string>& policies = sim::suppression_names();

  for (const std::string& name : gadgets) {
    const spp::SppInstance instance = spp::gadget_by_name(name);
    for (std::size_t s = 0; s < k_sim_seeds; ++s) {
      sim::SimOptions incremental;
      incremental.seed = base + s;
      incremental.scenario = scenarios[s % scenarios.size()];
      incremental.suppression = policies[s % policies.size()];
      incremental.record_trace = true;
      sim::SimOptions canonical = incremental;
      canonical.detector = "canonical";
      const sim::SimResult a = sim::simulate(instance, incremental);
      const sim::SimResult b = sim::simulate(instance, canonical);
      SCOPED_TRACE(name + " seed " + std::to_string(incremental.seed) + " (" +
                   incremental.scenario + "/" + incremental.suppression + ")");
      ASSERT_EQ(a.converged, b.converged);
      ASSERT_EQ(a.oscillating, b.oscillating);
      ASSERT_EQ(a.cutoff, b.cutoff);
      ASSERT_EQ(a.steps, b.steps);
      ASSERT_EQ(a.ticks, b.ticks);
      ASSERT_EQ(a.messages, b.messages);
      ASSERT_EQ(a.route_changes, b.route_changes);
      ASSERT_EQ(a.convergence_tick, b.convergence_tick);
      ASSERT_EQ(a.cycle_length, b.cycle_length);
      ASSERT_EQ(a.fixed_point_stable, b.fixed_point_stable);
      ASSERT_EQ(a.final_assignment, b.final_assignment);
      ASSERT_EQ(a.trace, b.trace);
    }
  }
}

}  // namespace
}  // namespace fsr::groundtruth
