// Parameterized property suites over randomized SPP instances, tying the
// three methods together:
//
//   * Theorem 4.1, empirically: whenever the analyzer reports SAFE
//     (strictly monotone), the event-driven SPVP simulator converges under
//     several seeded timings, a stable assignment exists, and the NDlog
//     emulation quiesces.
//   * Contrapositive ground truth: when exhaustive enumeration finds NO
//     stable assignment, the analyzer must NOT report safe.
//   * The dispute-cycle detector agrees exactly with the solver verdict
//     on SPP instances (a cycle exists iff strict monotonicity fails).
//   * Translation fidelity: per-node ranking order is preserved by the
//     generated algebra's compare().
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "fsr/emulation.h"
#include "fsr/safety_analyzer.h"
#include "sim/simulator.h"
#include "spp/gadgets.h"
#include "spp/dispute_wheel.h"
#include "spp/spp.h"
#include "spp/translate.h"
#include "util/rng.h"

namespace fsr {
namespace {

/// Random SPP instance: a handful of nodes around one destination with
/// random link structure and randomly ranked simple paths.
spp::SppInstance random_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  const int n = static_cast<int>(rng.uniform_int(2, 5));
  spp::SppInstance instance("random-" + std::to_string(seed));

  std::vector<std::string> nodes;
  for (int i = 1; i <= n; ++i) nodes.push_back(std::to_string(i));

  // Every node may reach the destination directly with probability 0.8;
  // random internal links with probability 0.5.
  std::vector<std::pair<std::string, std::string>> edges;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.8) || i == 0) {
      instance.add_edge(nodes[static_cast<std::size_t>(i)], "0");
    }
    for (int j = i + 1; j < n; ++j) {
      if (rng.chance(0.5)) {
        instance.add_edge(nodes[static_cast<std::size_t>(i)],
                          nodes[static_cast<std::size_t>(j)]);
      }
    }
  }

  // Enumerate simple paths to the destination (depth-limited), then keep
  // a random ranked subset per node.
  std::map<std::string, std::vector<spp::Path>> candidates;
  // Straightforward recursive enumeration, source-first.
  std::function<void(spp::Path)> walk = [&](spp::Path path) {
    const std::string& tip = path.back();
    if (instance.has_edge(tip, "0")) {
      spp::Path complete = path;
      complete.push_back("0");
      candidates[path.front()].push_back(std::move(complete));
    }
    if (path.size() >= 3) return;
    for (const std::string& node : nodes) {
      if (std::find(path.begin(), path.end(), node) != path.end()) continue;
      if (!instance.has_edge(tip, node)) continue;
      spp::Path longer = path;
      longer.push_back(node);
      walk(std::move(longer));
    }
  };
  for (const std::string& node : nodes) walk({node});

  for (auto& [node, paths] : candidates) {
    (void)node;
    std::shuffle(paths.begin(), paths.end(), rng.engine());
    const auto keep = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(paths.size())));
    for (std::size_t i = 0; i < keep; ++i) {
      instance.add_permitted_path(paths[i]);
    }
  }
  return instance;
}

class RandomSppProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSppProperty, SolverVerdictConsistentWithGroundTruth) {
  const spp::SppInstance instance = random_instance(GetParam());
  if (instance.permitted_path_count() == 0) return;

  const SafetyAnalyzer analyzer;
  const auto report =
      analyzer.analyze(*spp::algebra_from_spp(instance));
  const bool safe = report.verdict == SafetyVerdict::safe;

  // Ground truth 1: stable assignments.
  const auto stable = spp::enumerate_stable_assignments(instance);
  if (stable.empty()) {
    // No stable state -> certainly not safe; strict monotonicity must fail.
    EXPECT_FALSE(safe) << instance.name();
  }

  // Ground truth 2: dynamics. Safe implies convergence of SPVP under
  // multiple seeded link delays and staged start-up schedules...
  if (safe) {
    for (std::uint64_t sim_seed = 1; sim_seed <= 3; ++sim_seed) {
      sim::SimOptions sim_options;
      sim_options.seed = GetParam() * 1000 + sim_seed;
      sim_options.scenario = "staged";
      const sim::SimResult run = sim::simulate(instance, sim_options);
      EXPECT_TRUE(run.converged) << instance.name();
    }
    // ...and of the generated NDlog implementation.
    EmulationOptions options;
    options.batch_interval = 50 * net::k_millisecond;
    options.max_time = 60 * net::k_second;
    const auto emulated = emulate_spp(instance, options);
    EXPECT_TRUE(emulated.quiesced) << instance.name();
  }
}

TEST_P(RandomSppProperty, DisputeCycleAgreesWithSolver) {
  const spp::SppInstance instance = random_instance(GetParam());
  if (instance.permitted_path_count() == 0) return;

  const SafetyAnalyzer analyzer;
  const auto check = analyzer.check_monotonicity(
      *spp::algebra_from_spp(instance), MonotonicityMode::strict);
  const auto cycle = spp::find_dispute_cycle(instance);
  // SPP constraints are all strict, so: strictly monotone ranking exists
  // iff the strict-preference digraph is acyclic.
  EXPECT_EQ(check.holds, !cycle.has_value()) << instance.name();
}

TEST_P(RandomSppProperty, TranslationPreservesRankingOrder) {
  const spp::SppInstance instance = random_instance(GetParam());
  if (instance.permitted_path_count() == 0) return;
  const auto algebra = spp::algebra_from_spp(instance);
  for (const std::string& node : instance.nodes()) {
    const auto& ranked = instance.permitted(node);
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      for (std::size_t j = i + 1; j < ranked.size(); ++j) {
        EXPECT_EQ(
            algebra->compare(
                algebra::Value::atom(spp::spp_signature(ranked[i])),
                algebra::Value::atom(spp::spp_signature(ranked[j]))),
            algebra::Ordering::better);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSppProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// ----------------------------------------------- dispute wheel on gadgets

TEST(DisputeWheel, BadGadgetHasCycleGoodGadgetDoesNot) {
  EXPECT_TRUE(spp::find_dispute_cycle(spp::bad_gadget()).has_value());
  EXPECT_FALSE(spp::find_dispute_cycle(spp::good_gadget()).has_value());
}

TEST(DisputeWheel, Figure3CycleRunsThroughReflectors) {
  const auto cycle = spp::find_dispute_cycle(spp::ibgp_figure3_gadget());
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 6u);  // matches the solver's minimal core
  for (const auto& edge : *cycle) {
    EXPECT_EQ(edge.provenance.find("rank at d"), std::string::npos);
    EXPECT_EQ(edge.provenance.find("rank at e"), std::string::npos);
    EXPECT_EQ(edge.provenance.find("rank at f"), std::string::npos);
  }
}

TEST(DisputeWheel, CycleEdgesChain) {
  const auto cycle = spp::find_dispute_cycle(spp::disagree_gadget());
  ASSERT_TRUE(cycle.has_value());
  ASSERT_GE(cycle->size(), 2u);
  for (std::size_t i = 0; i < cycle->size(); ++i) {
    const auto& next = (*cycle)[(i + 1) % cycle->size()];
    EXPECT_EQ((*cycle)[i].dispreferred, next.preferred);
  }
}

}  // namespace
}  // namespace fsr
