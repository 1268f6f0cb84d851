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
//     extractor's internals may change freely; their output may not;
//   * content identity — api::fingerprint and the spp::canonical_spp length
//     of every library gadget, seeded random instances, the Rocketfuel
//     iBGP instances and serve-cold-shaped inline wire lines: the session
//     cache, the shard router and the campaign cache all key by these, so
//     a drift in the canonical text or the wire decode fails here.
//
// Regenerating after an INTENDED change (review the diff before
// committing!):
//
//   FSR_UPDATE_GOLDEN=1 ./build/test_golden
//
// Runs under the `golden` ctest label: `ctest -L golden`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algebra/standard_policies.h"
#include "api/request.h"
#include "api/wire.h"
#include "campaign/scenario_source.h"
#include "repair/repair_engine.h"
#include "sim/simulator.h"
#include "spp/gadgets.h"
#include "spp/random_instance.h"
#include "topology/as_hierarchy.h"
#include "topology/rocketfuel.h"
#include "util/rng.h"
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

// ------------------------------------------------------- content identity --

/// One line per instance: its fingerprint and its canonical text length.
std::string identity_line(const std::string& id,
                          std::shared_ptr<const spp::SppInstance> instance) {
  api::GroundTruthRequest request;
  request.spp = std::move(instance);
  const api::CompiledRequest compiled = api::compile(request);
  EXPECT_EQ(compiled.error(), "") << id;
  return id + " fp=" + compiled.fingerprint() +
         " canonical_bytes=" + std::to_string(compiled.canonical().size()) +
         '\n';
}

/// Appends every simple path from `prefix` to "0" of at most `max_edges`
/// edges, depth first in adjacency order, stopping at 64 paths.
void simple_paths(const std::map<std::string, std::vector<std::string>>& adj,
                  std::vector<std::string>& prefix, std::size_t max_edges,
                  std::vector<std::vector<std::string>>& out) {
  if (out.size() >= 64) return;
  if (prefix.back() == "0") {
    out.push_back(prefix);
    return;
  }
  if (prefix.size() > max_edges) return;
  const auto it = adj.find(prefix.back());
  if (it == adj.end()) return;
  for (const std::string& next : it->second) {
    if (std::find(prefix.begin(), prefix.end(), next) != prefix.end()) continue;
    prefix.push_back(next);
    simple_paths(adj, prefix, max_edges, out);
    prefix.pop_back();
  }
}

/// A request line shaped like the serve-cold benchmark's traffic: 8-40
/// nodes n1..nN, a random tree to destination "0" plus about two extra
/// edges per node, and up to three shuffled simple paths per node.
std::string serve_cold_line(util::Rng& rng, const std::string& kind,
                            const std::string& name) {
  const auto nodes = static_cast<int>(rng.uniform_int(8, 40));
  std::vector<std::string> names;
  for (int i = 1; i <= nodes; ++i) names.push_back("n" + std::to_string(i));
  std::map<std::string, std::vector<std::string>> adj;
  std::set<std::pair<std::string, std::string>> seen;
  std::string edges;
  const auto connect = [&](const std::string& u, const std::string& v) {
    if (!seen.insert({std::min(u, v), std::max(u, v)}).second) return;
    adj[u].push_back(v);
    adj[v].push_back(u);
    if (!edges.empty()) edges += ", ";
    edges += "[" + util::json_quoted(u) + ", " + util::json_quoted(v) + "]";
  };
  for (int i = 0; i < nodes; ++i) {
    const bool to_destination = i == 0 || rng.chance(0.4);
    connect(names[static_cast<std::size_t>(i)],
            to_destination ? std::string("0")
                           : names[static_cast<std::size_t>(
                                 rng.uniform_int(0, i - 1))]);
  }
  for (int i = 0; i < nodes; ++i) {
    for (int j = i + 1; j < nodes; ++j) {
      if (rng.chance(2.0 / nodes)) {
        connect(names[static_cast<std::size_t>(i)],
                names[static_cast<std::size_t>(j)]);
      }
    }
  }
  std::string paths;
  for (const std::string& node : names) {
    std::vector<std::vector<std::string>> candidates;
    std::vector<std::string> prefix = {node};
    simple_paths(adj, prefix, 5, candidates);
    if (candidates.empty()) {
      simple_paths(adj, prefix, static_cast<std::size_t>(nodes) + 1,
                   candidates);
    }
    for (std::size_t i = candidates.size(); i > 1; --i) {
      std::swap(candidates[i - 1],
                candidates[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    candidates.resize(std::min<std::size_t>(candidates.size(), 3));
    for (const auto& path : candidates) {
      if (!paths.empty()) paths += ", ";
      paths += "[";
      for (std::size_t h = 0; h < path.size(); ++h) {
        if (h > 0) paths += ", ";
        paths += util::json_quoted(path[h]);
      }
      paths += "]";
    }
  }
  return "{\"kind\": " + util::json_quoted(kind) +
         ", \"spp\": {\"name\": " + util::json_quoted(name) +
         ", \"destination\": \"0\", \"edges\": [" + edges +
         "], \"paths\": [" + paths + "]}}";
}

TEST(GoldenIdentity, FingerprintsMatchTheSnapshot) {
  std::string out;
  std::vector<std::string> gadgets = {"good", "bad", "disagree",
                                      "ibgp-figure3", "ibgp-figure3-fixed"};
  for (const int count : {1, 2, 4, 8, 16, 64}) {
    gadgets.push_back("good-chain-" + std::to_string(count));
    gadgets.push_back("bad-chain-" + std::to_string(count));
  }
  for (const std::string& gadget : gadgets) {
    out += identity_line(gadget, std::make_shared<const spp::SppInstance>(
                                     spp::gadget_by_name(gadget)));
  }
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const std::string id = "random-" + std::to_string(seed);
    out += identity_line(id, std::make_shared<const spp::SppInstance>(
                                 spp::random_spp_instance(id, seed, {})));
  }
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const bool embed : {false, true}) {
      topology::RocketfuelParams params;
      params.seed = seed;
      params.embed_gadget = embed;
      params.paths_per_egress = 4;
      out += identity_line(
          "rocketfuel-" + std::to_string(seed) + (embed ? "+gadget" : "") +
              "-ppe4",
          std::make_shared<const spp::SppInstance>(
              topology::build_rocketfuel_ibgp(params).instance));
    }
  }
  // Inline lines go through the wire decode, so the identity pins it too.
  const std::vector<std::string> kinds = {"analyze-safety", "ground-truth",
                                          "repair", "simulate", "emulate"};
  util::Rng rng(12);
  for (std::size_t i = 0; i < 50; ++i) {
    const std::string id = "cold-" + std::to_string(i);
    const std::string line = serve_cold_line(rng, kinds[i % kinds.size()], id);
    const api::CompiledRequest compiled =
        api::compile(api::wire::parse_request(line));
    EXPECT_EQ(compiled.error(), "") << id;
    out += id + " line_bytes=" + std::to_string(line.size()) +
           " fp=" + compiled.fingerprint() + " canonical_bytes=" +
           std::to_string(compiled.canonical().size()) + '\n';
  }
  check_snapshot("identity.golden", out);
}

}  // namespace
}  // namespace fsr::repair
