// Tests for the SPP substrate: instance validation, the gadget library's
// ground-truth stable-state structure, the path index against a
// name-based reference, and the SPP -> algebra translation of Section
// III-B (including the paper's eighteen-constraint Figure-3 encoding).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "algebra/finite_algebra.h"
#include "spp/gadgets.h"
#include "spp/path_index.h"
#include "spp/random_instance.h"
#include "spp/spp.h"
#include "spp/translate.h"
#include "topology/rocketfuel.h"
#include "util/error.h"

namespace fsr::spp {
namespace {

// ------------------------------------------------------------ instance --

TEST(SppInstance, ValidatesPaths) {
  SppInstance instance("t");
  instance.add_edge("1", "0");
  instance.add_edge("1", "2");
  EXPECT_THROW(instance.add_permitted_path({"1"}), InvalidArgument);
  EXPECT_THROW(instance.add_permitted_path({"1", "2"}), InvalidArgument);
  EXPECT_THROW(instance.add_permitted_path({"0", "1", "0"}), InvalidArgument);
  EXPECT_THROW(instance.add_permitted_path({"2", "0"}), InvalidArgument);
  EXPECT_THROW(instance.add_permitted_path({"1", "1", "0"}), InvalidArgument);
  instance.add_permitted_path({"1", "0"});
  EXPECT_EQ(instance.permitted("1").size(), 1u);
}

TEST(SppInstance, RejectsAPathListedTwice) {
  SppInstance instance("t");
  instance.add_edge("a", "0");
  instance.add_edge("b", "0");
  instance.add_permitted_path({"a", "0"});
  try {
    instance.add_permitted_path({"a", "0"});
    ADD_FAILURE() << "a duplicate path was accepted";
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(), "permitted path a-0 is listed twice at a");
  }
  instance.add_permitted_path({"b", "0"});
  EXPECT_EQ(instance.permitted("a").size(), 1u);
  EXPECT_EQ(instance.permitted_path_count(), 2u);
}

TEST(SppInstance, RankOfReflectsInsertionOrder) {
  const SppInstance g = good_gadget();
  EXPECT_EQ(g.rank_of({"1", "3", "0"}), 0u);
  EXPECT_EQ(g.rank_of({"1", "0"}), 1u);
  EXPECT_EQ(g.rank_of({"1", "2", "0"}), std::nullopt);
}

TEST(SppInstance, EdgesDeduplicated) {
  SppInstance instance("t");
  instance.add_edge("1", "2");
  instance.add_edge("2", "1");
  EXPECT_EQ(instance.edges().size(), 1u);
  EXPECT_TRUE(instance.has_edge("2", "1"));
}

TEST(SppInstance, RejectsSelfLoop) {
  SppInstance instance("t");
  EXPECT_THROW(instance.add_edge("1", "1"), InvalidArgument);
}

TEST(SppInstance, RejectsNodeNamesThatBreakTheRenderings) {
  // path_name joins hops with '-' and canonical_spp separates with '~',
  // ',', ':' and ';': a name carrying one (or an empty one, which made
  // simulate answer "b--0") would render ambiguously.
  for (const std::string bad : {"", "a-b", "a~b", "a,b", "a:b", "a;b"}) {
    SCOPED_TRACE(bad);
    SppInstance instance("t");
    EXPECT_THROW(instance.add_edge(bad, "0"), InvalidArgument);
    EXPECT_THROW(instance.add_edge("b", bad), InvalidArgument);
    EXPECT_THROW(SppInstance("t", bad), InvalidArgument);
    EXPECT_TRUE(instance.edges().empty());
  }
  try {
    SppInstance("t").add_edge("a-b", "0");
    ADD_FAILURE() << "a separator in a node name was accepted";
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(),
                 "SPP node name 'a-b' must be non-empty and free of '-', "
                 "'~', ',', ':' and ';'");
  }
  // The in-repo generators' spellings stay valid.
  SppInstance instance("t", "d0");
  for (const char* name : {"n1", "r1_2", "as3_4", "c5"}) {
    EXPECT_NO_THROW(instance.add_edge(name, "d0"));
  }
}

TEST(SppInstance, NodesExcludeDestination) {
  const SppInstance g = disagree_gadget();
  const auto nodes = g.nodes();
  EXPECT_EQ(nodes.size(), 2u);
  for (const auto& n : nodes) EXPECT_NE(n, "0");
}

// ------------------------------------------------- stable enumeration --

TEST(StableStates, GoodGadgetHasUniqueSolution) {
  const auto stable = enumerate_stable_assignments(good_gadget());
  ASSERT_EQ(stable.size(), 1u);
  const Assignment& a = stable.front();
  EXPECT_EQ(a.at("1"), (Path{"1", "3", "0"}));
  EXPECT_EQ(a.at("2"), (Path{"2", "0"}));
  EXPECT_EQ(a.at("3"), (Path{"3", "0"}));
}

TEST(StableStates, BadGadgetHasNoSolution) {
  EXPECT_TRUE(enumerate_stable_assignments(bad_gadget()).empty());
}

TEST(StableStates, DisagreeHasExactlyTwoSolutions) {
  const auto stable = enumerate_stable_assignments(disagree_gadget());
  EXPECT_EQ(stable.size(), 2u);
}

TEST(StableStates, Figure3GadgetHasNoSolution) {
  // The iBGP reflection instance oscillates: no stable assignment.
  EXPECT_TRUE(enumerate_stable_assignments(ibgp_figure3_gadget()).empty());
}

TEST(StableStates, Figure3FixedHasSolution) {
  const auto stable = enumerate_stable_assignments(ibgp_figure3_fixed());
  ASSERT_FALSE(stable.empty());
  // In every stable state each reflector uses its own client's egress.
  for (const Assignment& a : stable) {
    EXPECT_EQ(a.at("a"), (Path{"a", "d", "0"}));
    EXPECT_EQ(a.at("b"), (Path{"b", "e", "0"}));
    EXPECT_EQ(a.at("c"), (Path{"c", "f", "0"}));
  }
}

TEST(StableStates, EnumerationGuardsSearchSpace) {
  EXPECT_THROW(
      enumerate_stable_assignments(good_gadget_chain(30), /*max_states=*/100),
      InvalidArgument);
}

TEST(StableStates, StabilityPredicateMatchesEnumeration) {
  const auto stable = enumerate_stable_assignments(disagree_gadget());
  for (const Assignment& assignment : stable) {
    EXPECT_TRUE(is_stable_assignment(disagree_gadget(), assignment));
  }
  // Perturbing a stable state breaks the predicate.
  Assignment broken = stable.front();
  broken.erase(broken.begin()->first);
  EXPECT_FALSE(is_stable_assignment(disagree_gadget(), broken));
  EXPECT_FALSE(is_stable_assignment(bad_gadget(), {}));
}

TEST(StableStates, BudgetedScanStopsInsteadOfThrowing) {
  // The full space of good_gadget_chain(8) is 3^24 states; a 1000-state
  // budget must stop cleanly and say so.
  const BudgetedEnumeration capped =
      enumerate_stable_assignments_budgeted(good_gadget_chain(8), 1000);
  EXPECT_FALSE(capped.complete);
  EXPECT_EQ(capped.states_scanned, 1000u);

  const BudgetedEnumeration full =
      enumerate_stable_assignments_budgeted(disagree_gadget(), 1u << 20);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.states_scanned, 9u);  // 3 options x 3 options
  EXPECT_EQ(full.assignments.size(), 2u);

  // The solutions bound also ends the scan early.
  const BudgetedEnumeration bounded = enumerate_stable_assignments_budgeted(
      disagree_gadget(), 1u << 20, /*max_solutions=*/1);
  EXPECT_FALSE(bounded.complete);
  EXPECT_EQ(bounded.assignments.size(), 1u);
}

TEST(StableStates, BudgetedScanNamesTheExhaustedBudget) {
  // An incomplete scan says WHICH budget ended it — the repair report
  // surfaces this instead of a bare not_applicable.
  const BudgetedEnumeration states_out =
      enumerate_stable_assignments_budgeted(good_gadget_chain(8), 1000);
  EXPECT_EQ(states_out.stopped_by, EnumerationStop::state_budget);
  const BudgetedEnumeration solutions_out =
      enumerate_stable_assignments_budgeted(disagree_gadget(), 1u << 20,
                                            /*max_solutions=*/1);
  EXPECT_EQ(solutions_out.stopped_by, EnumerationStop::solution_budget);
  const BudgetedEnumeration done =
      enumerate_stable_assignments_budgeted(disagree_gadget(), 1u << 20);
  EXPECT_EQ(done.stopped_by, EnumerationStop::completed);
  EXPECT_STREQ(to_string(EnumerationStop::completed), "completed");
  EXPECT_STREQ(to_string(EnumerationStop::state_budget), "state-budget");
  EXPECT_STREQ(to_string(EnumerationStop::solution_budget),
               "solution-budget");
}

// ---------------------------------------------------------- path index --

/// Checks `instance`'s PathIndex against a reference built from names
/// alone: nodes(), permitted() and rank_of.
void expect_index_matches_reference(const SppInstance& instance) {
  SCOPED_TRACE(instance.name());
  const PathIndex index(instance);

  std::vector<std::string> names = instance.nodes();
  names.push_back(instance.destination());
  std::sort(names.begin(), names.end());
  ASSERT_EQ(index.node_count(), names.size());
  EXPECT_EQ(index.name(index.destination()), instance.destination());
  std::map<std::string, PathIndex::PathId> first_path;
  PathIndex::PathId next = 0;
  for (PathIndex::NodeId id = 0; id < names.size(); ++id) {
    EXPECT_EQ(index.name(id), names[id]);
    EXPECT_EQ(index.node(names[id]), id);
    first_path[names[id]] = next;
    next += static_cast<PathIndex::PathId>(
        instance.permitted(names[id]).size());
  }
  EXPECT_EQ(index.node("?"), std::nullopt);
  ASSERT_EQ(index.path_count(), instance.permitted_path_count());

  for (PathIndex::NodeId id = 0; id < names.size(); ++id) {
    const std::vector<Path>& permitted = instance.permitted(names[id]);
    const auto ranked = index.ranked(id);
    ASSERT_EQ(ranked.size(), permitted.size()) << names[id];
    for (std::size_t rank = 0; rank < permitted.size(); ++rank) {
      const Path& path = permitted[rank];
      const PathIndex::PathId pid = ranked[rank];
      EXPECT_EQ(pid, first_path[names[id]] + rank);
      EXPECT_EQ(index.path(pid), path);
      EXPECT_EQ(index.path_name(pid), path_name(path));
      EXPECT_EQ(index.source(pid), id);
      EXPECT_EQ(index.direct(pid), path.size() == 2);
      EXPECT_EQ(index.find(path), pid);

      std::optional<PathIndex::PathId> suffix;
      const Path rest(path.begin() + 1, path.end());
      if (const auto suffix_rank = instance.rank_of(rest)) {
        suffix = first_path[rest.front()] +
                 static_cast<PathIndex::PathId>(*suffix_rank);
      }
      EXPECT_EQ(index.suffix(pid), suffix.value_or(PathIndex::k_none));
      EXPECT_EQ(index.find(rest), suffix);  // nullopt when not permitted

      Path through_unknown = path;
      through_unknown[path.size() / 2] = "?";
      EXPECT_EQ(index.find(through_unknown), std::nullopt);
    }
  }
  EXPECT_EQ(index.find({}), std::nullopt);
}

TEST(PathIndex, MatchesANaiveReference) {
  for (const SppInstance& gadget : {good_gadget(), bad_gadget(),
                                    disagree_gadget(), ibgp_figure3_gadget()}) {
    expect_index_matches_reference(gadget);
  }
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    expect_index_matches_reference(random_spp_instance(
        "random-" + std::to_string(seed), seed, RandomSppSweep{}));
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const bool gadget : {false, true}) {
      topology::RocketfuelParams params;
      params.seed = seed;
      params.embed_gadget = gadget;
      params.paths_per_egress = 4;
      expect_index_matches_reference(
          topology::build_rocketfuel_ibgp(params).instance);
    }
  }
}

// --------------------------------------------------------- translation --

TEST(Translate, Figure3ProducesEighteenConstraints) {
  const auto a = algebra_from_spp(ibgp_figure3_gadget());
  const algebra::SymbolicSpec spec = a->symbolic();
  // 15 permitted paths -> 15 signatures.
  EXPECT_EQ(spec.signatures.size(), 15u);
  // 9 pairwise ranking constraints (1+1+1+2+2+2).
  EXPECT_EQ(spec.preferences.size(), 9u);
  // 9 concatenation entries (paths whose suffix is itself permitted).
  EXPECT_EQ(spec.extensions.size(), 9u);
  // Together: the paper's "eighteen constraints" for this instance.
  EXPECT_EQ(spec.preferences.size() + spec.extensions.size(), 18u);
}

TEST(Translate, LabelsAndComplements) {
  const auto a = algebra_from_spp(disagree_gadget());
  EXPECT_EQ(a->complement(algebra::Value::atom(spp_label("1", "2"))),
            algebra::Value::atom(spp_label("2", "1")));
}

TEST(Translate, ExtensionReplaysSppDynamics) {
  const auto a = algebra_from_spp(good_gadget());
  // 1 extends 3's direct route over link 1->3: permitted, yields r(1-3-0).
  const auto extended =
      a->extend(algebra::Value::atom(spp_label("1", "3")),
                algebra::Value::atom(spp_signature({"3", "0"})));
  ASSERT_TRUE(extended.has_value());
  EXPECT_EQ(extended->as_atom(), spp_signature({"1", "3", "0"}));
  // 2 extending 3's route is not permitted anywhere: phi.
  EXPECT_FALSE(a->extend(algebra::Value::atom(spp_label("2", "1")),
                         algebra::Value::atom(spp_signature({"3", "0"})))
                   .has_value());
}

TEST(Translate, OriginationCoversOneHopPermittedPaths) {
  const auto a = algebra_from_spp(good_gadget());
  const auto orig = a->originate(algebra::Value::atom(spp_label("3", "0")));
  ASSERT_TRUE(orig.has_value());
  EXPECT_EQ(orig->as_atom(), spp_signature({"3", "0"}));
}

TEST(Translate, PerNodeRankingBecomesStrictPreference) {
  const auto a = algebra_from_spp(good_gadget());
  EXPECT_EQ(a->compare(algebra::Value::atom(spp_signature({"1", "3", "0"})),
                       algebra::Value::atom(spp_signature({"1", "0"}))),
            algebra::Ordering::better);
  // Paths of different nodes are incomparable (partial order; the paper's
  // soundness argument in Section IV-C explains why this is fine).
  EXPECT_EQ(a->compare(algebra::Value::atom(spp_signature({"1", "0"})),
                       algebra::Value::atom(spp_signature({"2", "0"}))),
            algebra::Ordering::incomparable);
}

TEST(Translate, RejectsEmptyInstance) {
  SppInstance empty("empty");
  EXPECT_THROW(algebra_from_spp(empty), InvalidArgument);
}

TEST(Translate, GoodGadgetChainScales) {
  const auto a = algebra_from_spp(good_gadget_chain(4));
  EXPECT_EQ(a->symbolic().signatures.size(), 4u * 6u);
}

}  // namespace
}  // namespace fsr::spp
