// Golden corpora, snapshotted under tests/golden/ and diffed byte-exactly
// on every run:
//
//   * repair — the full gadget library's fsr_repair JSON: any drift in the
//     search, the ranking, the oracle verdicts, or the JSON rendering fails
//     loudly here before it reaches a user;
//   * simulation — one line per fsr::sim run over a fixed matrix (gadgets,
//     seeded random instances, the Rocketfuel iBGP instances × scenario ×
//     suppression × MRAI × detector): every SimResult field, the final
//     assignment and a digest of the event trace. It also pins the
//     canonical digest of campaign::spp_from_topology over a depth × seed ×
//     label-scheme sweep of AS hierarchies. The simulator's and the
//     extractor's internals may change freely; their output may not.
//
// Regenerating after an INTENDED change (review the diff before
// committing!):
//
//   FSR_UPDATE_GOLDEN=1 ./build/test_golden
//
// Runs under the `golden` ctest label: `ctest -L golden`.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algebra/standard_policies.h"
#include "campaign/scenario_source.h"
#include "repair/repair_engine.h"
#include "sim/simulator.h"
#include "spp/gadgets.h"
#include "spp/random_instance.h"
#include "topology/as_hierarchy.h"
#include "topology/rocketfuel.h"
#include "util/strings.h"

#ifndef FSR_GOLDEN_DIR
#error "FSR_GOLDEN_DIR must point at the source tree's tests/golden"
#endif

namespace fsr::repair {
namespace {

/// Writes `rendered` to tests/golden/`file` under FSR_UPDATE_GOLDEN, and
/// otherwise compares it byte for byte with the snapshot.
void check_snapshot(const std::string& file, const std::string& rendered) {
  const std::string path = std::string(FSR_GOLDEN_DIR) + "/" + file;
  if (std::getenv("FSR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden snapshot " << path
      << " — generate it with FSR_UPDATE_GOLDEN=1 ./build/test_golden";
  std::ostringstream disk;
  disk << in.rdbuf();
  EXPECT_EQ(rendered, disk.str())
      << file << " drifted from its snapshot; if the change is intended, "
      << "regenerate with FSR_UPDATE_GOLDEN=1 ./build/test_golden and "
         "review the diff";
}

std::vector<std::pair<std::string, spp::SppInstance>> corpus() {
  std::vector<std::pair<std::string, spp::SppInstance>> out;
  out.emplace_back("good", spp::good_gadget());
  out.emplace_back("bad", spp::bad_gadget());
  out.emplace_back("disagree", spp::disagree_gadget());
  out.emplace_back("ibgp-figure3", spp::ibgp_figure3_gadget());
  out.emplace_back("ibgp-figure3-fixed", spp::ibgp_figure3_fixed());
  for (const int length : {2, 4, 8}) {
    out.emplace_back("bad-chain-" + std::to_string(length),
                     spp::bad_gadget_chain(length));
  }
  return out;
}

TEST(GoldenRepair, ReportsMatchTheSnapshots) {
  const RepairEngine engine;  // default options = the documented behaviour
  for (const auto& [name, instance] : corpus()) {
    SCOPED_TRACE(name);
    check_snapshot(name + ".repair.json", to_json(engine.repair(instance)));
  }
}

TEST(GoldenRepair, SnapshotsAreRepeatable) {
  // The deterministic fields are a pure function of (instance, options):
  // re-running the corpus is byte-identical (the golden diff's
  // precondition).
  const RepairEngine engine;
  for (const auto& [name, instance] : corpus()) {
    EXPECT_EQ(to_json(engine.repair(instance)),
              to_json(engine.repair(instance)))
        << name;
  }
}

// ------------------------------------------------------ simulation corpus --

/// One line per run: the configuration, every SimResult field but the
/// echoed scenario and suppression (checked against the options instead),
/// the final assignment, and a digest of the event trace ("-" when not
/// recorded). The detector is not part of the line: both must render it.
std::string sim_line(const std::string& instance_id,
                     const sim::SimOptions& options,
                     const sim::SimResult& run) {
  EXPECT_EQ(run.scenario, options.scenario);
  EXPECT_EQ(run.suppression, options.suppression);
  std::string out = instance_id + " seed=" + std::to_string(options.seed) +
                    " " + options.scenario + " " + options.suppression +
                    " mrai=" + std::to_string(options.mrai_ticks) + " |";
  out += run.converged ? 'C' : '-';
  out += run.oscillating ? 'O' : '-';
  out += run.cutoff ? 'X' : '-';
  out += run.fixed_point_stable ? 'S' : '-';
  out += " steps=" + std::to_string(run.steps) +
         " ticks=" + std::to_string(run.ticks) +
         " msgs=" + std::to_string(run.messages) +
         " changes=" + std::to_string(run.route_changes) +
         " conv=" + std::to_string(run.convergence_tick) +
         " cycle=" + std::to_string(run.cycle_length) + " final=";
  for (const auto& [node, path] : run.final_assignment) {
    out += node + ':' + spp::path_name(path) + ';';
  }
  out += " trace=";
  if (options.record_trace) {
    std::string joined;
    for (const std::string& line : run.trace) joined += line + '\n';
    out += std::to_string(run.trace.size()) + ':' +
           util::content_digest(joined);
  } else {
    out += '-';
  }
  return out + '\n';
}

/// Runs `instance` under every scenario x suppression x MRAI window and
/// appends the incremental detector's line per run. With `canonical`, the
/// canonical detector must render the same line on every run the
/// incremental one decided; a cutoff run is skipped there, because the
/// canonical detector keeps one state encoding per step up to max_steps
/// (over 1 GB on random-101, whose queue grows throughout).
void sweep_instance(std::string& out, const std::string& instance_id,
                    const spp::SppInstance& instance, std::uint64_t seed,
                    bool canonical, bool trace) {
  for (const std::string& scenario : sim::scenario_names()) {
    for (const std::string& suppression : sim::suppression_names()) {
      for (const std::uint32_t mrai : {0u, 3u}) {
        sim::SimOptions options;
        options.seed = seed;
        options.scenario = scenario;
        options.suppression = suppression;
        options.mrai_ticks = mrai;
        options.record_trace = trace;
        const sim::SimResult run = sim::simulate(instance, options);
        const std::string line = sim_line(instance_id, options, run);
        out += line;
        if (canonical && !run.cutoff) {
          options.detector = "canonical";
          EXPECT_EQ(sim_line(instance_id, options,
                             sim::simulate(instance, options)),
                    line);
        }
      }
    }
  }
}

TEST(GoldenSim, SimulationCorpusMatchesTheSnapshot) {
  std::string out;
  std::uint64_t ordinal = 0;
  for (const char* gadget :
       {"good", "bad", "disagree", "ibgp-figure3", "ibgp-figure3-fixed"}) {
    sweep_instance(out, gadget, spp::gadget_by_name(gadget), ++ordinal, true,
                   true);
  }
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const std::string id = "random-" + std::to_string(seed);
    sweep_instance(out, id, spp::random_spp_instance(id, seed, {}), seed,
                   true, false);
  }
  // The paper's iBGP experiment: the Figure-3 gadget embedded in an
  // 87-router topology (and the clean instances around it). The canonical
  // detector's per-step state encoding is what the incremental one exists
  // to avoid at this scale, so only the incremental detector runs here.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const bool embed : {false, true}) {
      topology::RocketfuelParams params;
      params.seed = seed;
      params.embed_gadget = embed;
      params.paths_per_egress = 4;
      const std::string id = "rocketfuel-" + std::to_string(seed) +
                             (embed ? "+gadget" : "") + "-ppe4";
      sweep_instance(out, id, topology::build_rocketfuel_ibgp(params).instance,
                     seed, false, true);
    }
  }
  check_snapshot("sim.golden", out);
}

TEST(GoldenSim, TopologyExtractionMatchesTheSnapshot) {
  // campaign::spp_from_topology under the as-hierarchy sweep's simulation
  // budgets (edges = depth + 4, 16 candidates, 3 kept per node).
  std::string out;
  for (const std::int32_t depth : {3, 5, 8, 12, 20, 45}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      for (const bool hops : {false, true}) {
        topology::AsHierarchyParams params;
        params.depth = depth;
        params.seed = seed;
        const topology::Topology topo = topology::generate_as_hierarchy(
            params, hops ? topology::LabelScheme::business_hop_count
                         : topology::LabelScheme::business);
        const algebra::AlgebraPtr algebra =
            hops ? algebra::gao_rexford_with_hop_count()
                 : algebra::gao_rexford_guideline_a();
        const spp::SppInstance instance = campaign::spp_from_topology(
            topo.name, topo, *algebra, depth + 4, 16, 3);
        out += "depth=" + std::to_string(depth) +
               " seed=" + std::to_string(seed) +
               (hops ? " gr-a-hops" : " gr-a") +
               " nodes=" + std::to_string(instance.nodes().size()) +
               " paths=" + std::to_string(instance.permitted_path_count()) +
               " spp=" + util::content_digest(spp::canonical_spp(instance)) +
               '\n';
      }
    }
  }
  check_snapshot("extraction.golden", out);
}

}  // namespace
}  // namespace fsr::repair
