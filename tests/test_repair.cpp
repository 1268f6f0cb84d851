// Tests for the counterexample-guided repair engine: edit application,
// verified minimal repairs on the classic divergent gadgets (the acceptance
// property: DISAGREE/BAD-class instances get ground-truthed single-edit
// fixes), incremental-vs-from-scratch agreement, determinism, multi-edit
// search, and the campaign-facing summary.
#include <gtest/gtest.h>

#include <set>

#include "fsr/safety_analyzer.h"
#include "repair/edit.h"
#include "repair/repair_engine.h"
#include "spp/gadgets.h"
#include "spp/spp.h"
#include "spp/translate.h"

namespace fsr::repair {
namespace {

// ---------------------------------------------------------------- edits --

TEST(ApplyEdits, DropRemovesPathFromRanking) {
  const spp::SppInstance bad = spp::bad_gadget();
  PolicyEdit drop{EditKind::drop_path, "1", {"1", "2", "0"}, {}};
  const auto edited = apply_edits(bad, {drop});
  ASSERT_TRUE(edited.has_value());
  EXPECT_EQ(edited->permitted("1"),
            (std::vector<spp::Path>{{"1", "0"}}));
  // Other nodes untouched; edges preserved.
  EXPECT_EQ(edited->permitted("2"), bad.permitted("2"));
  EXPECT_TRUE(edited->has_edge("1", "2"));
}

TEST(ApplyEdits, DemoteMovesPathToBottom) {
  const spp::SppInstance bad = spp::bad_gadget();
  PolicyEdit demote{EditKind::demote_path, "1", {"1", "2", "0"}, {}};
  const auto edited = apply_edits(bad, {demote});
  ASSERT_TRUE(edited.has_value());
  EXPECT_EQ(edited->permitted("1"),
            (std::vector<spp::Path>{{"1", "0"}, {"1", "2", "0"}}));
}

TEST(ApplyEdits, InapplicableEditsReturnNullopt) {
  const spp::SppInstance bad = spp::bad_gadget();
  // Dropping a path that is not permitted.
  PolicyEdit ghost{EditKind::drop_path, "1", {"1", "0", "0"}, {}};
  EXPECT_FALSE(apply_edits(bad, {ghost}).has_value());
  // Demoting a path that is already last.
  PolicyEdit last{EditKind::demote_path, "1", {"1", "0"}, {}};
  EXPECT_FALSE(apply_edits(bad, {last}).has_value());
  // Dropping the same path twice.
  PolicyEdit drop{EditKind::drop_path, "1", {"1", "2", "0"}, {}};
  EXPECT_FALSE(apply_edits(bad, {drop, drop}).has_value());
}

TEST(ApplyEdits, RelaxEditsAreConstraintLevelOnly) {
  const spp::SppInstance bad = spp::bad_gadget();
  PolicyEdit relax{EditKind::relax_preference, {}, {"1", "2", "0"},
                   {"1", "0"}};
  const auto edited = apply_edits(bad, {relax});
  ASSERT_TRUE(edited.has_value());  // skipped, instance unchanged
  EXPECT_EQ(edited->permitted("1"), bad.permitted("1"));
}

// ------------------------------------------------------ acceptance cases --

void expect_verified_single_edit_repair(const spp::SppInstance& instance) {
  const RepairEngine engine;
  const RepairReport report = engine.repair(instance);
  EXPECT_FALSE(report.already_safe);
  EXPECT_FALSE(report.initial_core.empty());
  ASSERT_TRUE(report.repaired());
  const RepairCandidate* best = report.best();
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->edits.size(), 1u);
  EXPECT_TRUE(best->solver_safe);
  EXPECT_EQ(best->ground_truth, GroundTruth::verified);
  EXPECT_GE(best->stable_assignments, 1u);

  // The claimed fix must hold end to end: apply the edits and the analyzer
  // must prove the edited instance safe.
  const auto edited = apply_edits(instance, best->edits);
  ASSERT_TRUE(edited.has_value());
  const SafetyReport safety =
      SafetyAnalyzer().analyze(*spp::algebra_from_spp(*edited));
  EXPECT_EQ(safety.verdict, SafetyVerdict::safe);
}

TEST(RepairEngine, DisagreeGetsVerifiedMinimalRepair) {
  expect_verified_single_edit_repair(spp::disagree_gadget());
}

TEST(RepairEngine, BadGadgetGetsVerifiedMinimalRepair) {
  expect_verified_single_edit_repair(spp::bad_gadget());
}

TEST(RepairEngine, BadGadgetChainGetsRepaired) {
  expect_verified_single_edit_repair(spp::bad_gadget_chain(2));
}

TEST(RepairEngine, Figure3BestRepairMatchesThePaperFix) {
  const RepairEngine engine;
  const RepairReport report = engine.repair(spp::ibgp_figure3_gadget());
  ASSERT_TRUE(report.repaired());
  // The paper's NoGadget fix makes a reflector prefer its own client's
  // egress; the engine's least-destructive ranking surfaces exactly that
  // shape: demote one reflector's remote-client route.
  const RepairCandidate* best = report.best();
  ASSERT_NE(best, nullptr);
  ASSERT_EQ(best->edits.size(), 1u);
  EXPECT_EQ(best->edits[0].kind, EditKind::demote_path);
  const std::set<std::string> reflectors = {"a", "b", "c"};
  EXPECT_TRUE(reflectors.contains(best->edits[0].node));
  EXPECT_EQ(best->ground_truth, GroundTruth::verified);
}

TEST(RepairEngine, SafeInstanceShortCircuits) {
  const RepairEngine engine;
  const RepairReport report = engine.repair(spp::good_gadget());
  EXPECT_TRUE(report.already_safe);
  EXPECT_FALSE(report.repaired());
  EXPECT_TRUE(report.initial_core.empty());
  EXPECT_EQ(report.solver_checks, 1u);
}

TEST(RepairEngine, TwoIndependentDisputesNeedTwoEdits) {
  // Two disjoint DISAGREE pairs sharing the destination: no single edit
  // can fix both cycles, so the minimal repair has exactly two edits.
  spp::SppInstance twin("twin-disagree");
  const auto add_pair = [&](const std::string& u, const std::string& v) {
    twin.add_edge(u, "0");
    twin.add_edge(v, "0");
    twin.add_edge(u, v);
    twin.add_permitted_path({u, v, "0"});
    twin.add_permitted_path({u, "0"});
    twin.add_permitted_path({v, u, "0"});
    twin.add_permitted_path({v, "0"});
  };
  add_pair("1", "2");
  add_pair("3", "4");

  const RepairEngine engine;
  const RepairReport report = engine.repair(twin);
  ASSERT_TRUE(report.repaired());
  EXPECT_EQ(report.best()->edits.size(), 2u);
  EXPECT_EQ(report.best()->ground_truth, GroundTruth::verified);
  EXPECT_GT(report.cores_seen, 1u);  // the second cycle surfaced as a new
                                     // counterexample mid-search
}

TEST(RepairEngine, EditBudgetLimitsSearchDepth) {
  spp::SppInstance twin("twin-disagree");
  const auto add_pair = [&](const std::string& u, const std::string& v) {
    twin.add_edge(u, "0");
    twin.add_edge(v, "0");
    twin.add_edge(u, v);
    twin.add_permitted_path({u, v, "0"});
    twin.add_permitted_path({u, "0"});
    twin.add_permitted_path({v, u, "0"});
    twin.add_permitted_path({v, "0"});
  };
  add_pair("1", "2");
  add_pair("3", "4");

  RepairOptions options;
  options.max_edits = 1;
  const RepairReport report = RepairEngine(options).repair(twin);
  EXPECT_FALSE(report.repaired());
  EXPECT_GT(report.candidates_checked, 0u);
}

TEST(RepairEngine, CheckBudgetIsHonoured) {
  RepairOptions options;
  options.max_checks = 3;
  const RepairReport report =
      RepairEngine(options).repair(spp::bad_gadget());
  EXPECT_LE(report.solver_checks, 3u);
  EXPECT_TRUE(report.budget_exhausted || report.repaired());
}

// --------------------------------------------- determinism and ablation --

TEST(RepairEngine, ReportsAreDeterministic) {
  const RepairEngine engine;
  const std::string one = to_json(engine.repair(spp::bad_gadget()));
  const std::string two = to_json(engine.repair(spp::bad_gadget()));
  EXPECT_EQ(one, two);
}

TEST(RepairEngine, IncrementalAndFromScratchAgree) {
  RepairOptions incremental;
  RepairOptions scratch;
  scratch.use_incremental = false;
  const std::vector<spp::SppInstance> instances = {
      spp::bad_gadget(), spp::disagree_gadget(), spp::ibgp_figure3_gadget(),
      spp::bad_gadget_chain(3)};
  for (const spp::SppInstance& instance : instances) {
    const RepairReport fast = RepairEngine(incremental).repair(instance);
    const RepairReport slow = RepairEngine(scratch).repair(instance);
    EXPECT_EQ(to_json(fast), to_json(slow)) << instance.name();
    EXPECT_EQ(slow.engine_rebuilds, 0u);  // ablation never builds the engine
  }
}

TEST(RepairEngine, RelaxCanBeDisabled) {
  RepairOptions options;
  options.allow_relax = false;
  const RepairReport report =
      RepairEngine(options).repair(spp::disagree_gadget());
  ASSERT_TRUE(report.repaired());
  for (const RepairCandidate& candidate : report.repairs) {
    for (const PolicyEdit& edit : candidate.edits) {
      EXPECT_NE(edit.kind, EditKind::relax_preference);
    }
  }
}

// ----------------------------------------------------- ground-truth modes --

TEST(RepairEngine, GroundTruthBackendsAgreeOnGadgetRepairs) {
  // Same search, same candidates; only the validation oracle differs. On
  // gadget-scale instances both oracles are exact, so the full report —
  // ranked repairs, stable-assignment counts, verdicts — must match
  // except for the recorded mode name.
  RepairOptions sat_options;
  sat_options.ground_truth = groundtruth::Mode::sat_search;
  RepairOptions enum_options;
  enum_options.ground_truth = groundtruth::Mode::enumerate;
  const std::vector<spp::SppInstance> instances = {
      spp::bad_gadget(), spp::disagree_gadget(), spp::ibgp_figure3_gadget(),
      spp::bad_gadget_chain(2)};
  for (const spp::SppInstance& instance : instances) {
    RepairReport via_sat = RepairEngine(sat_options).repair(instance);
    const RepairReport via_enum =
        RepairEngine(enum_options).repair(instance);
    EXPECT_EQ(via_sat.ground_truth_mode, groundtruth::Mode::sat_search);
    via_sat.ground_truth_mode = via_enum.ground_truth_mode;
    EXPECT_EQ(to_json(via_sat), to_json(via_enum)) << instance.name();
  }
}

TEST(RepairEngine, SatSearchVerifiesWhereEnumerationCannot) {
  // bad_gadget_chain(8) has 24 nodes: any candidate's state space (3^24)
  // dwarfs the enumeration cap, so the enumerate oracle must abstain
  // (not_applicable) while sat-search proves the repair outright.
  RepairOptions enum_options;
  enum_options.ground_truth = groundtruth::Mode::enumerate;
  const RepairReport unverified =
      RepairEngine(enum_options).repair(spp::bad_gadget_chain(8));
  ASSERT_TRUE(unverified.repaired());
  EXPECT_EQ(unverified.best()->ground_truth, GroundTruth::not_applicable);

  RepairOptions sat_options;
  sat_options.ground_truth = groundtruth::Mode::sat_search;
  const RepairReport verified =
      RepairEngine(sat_options).repair(spp::bad_gadget_chain(8));
  ASSERT_TRUE(verified.repaired());
  EXPECT_EQ(verified.best()->ground_truth, GroundTruth::verified);
  EXPECT_GE(verified.best()->stable_assignments, 1u);
  // Identical searches: the oracle cannot change which edits are found.
  EXPECT_EQ(verified.best()->describe(), unverified.best()->describe());
}

TEST(RepairSummary, CarriesTheGroundTruthMode) {
  const RepairEngine engine;  // default: sat-search
  const RepairSummary summary =
      summarize(engine.repair(spp::disagree_gadget()));
  EXPECT_EQ(summary.ground_truth_mode, "sat-search");
}

TEST(RepairEngine, IncrementalAndScratchOraclesAgree) {
  // Same search, same candidates; only the oracle PLUMBING differs (one
  // persistent StableSatSession vs a from-scratch encode per candidate).
  // Reports must be byte-identical.
  RepairOptions session_options;
  RepairOptions scratch_options;
  scratch_options.use_incremental_oracle = false;
  const std::vector<spp::SppInstance> instances = {
      spp::bad_gadget(), spp::disagree_gadget(), spp::ibgp_figure3_gadget(),
      spp::bad_gadget_chain(4)};
  for (const spp::SppInstance& instance : instances) {
    const RepairReport incremental =
        RepairEngine(session_options).repair(instance);
    const RepairReport scratch =
        RepairEngine(scratch_options).repair(instance);
    EXPECT_EQ(to_json(incremental), to_json(scratch)) << instance.name();
    // The session really ran (and only on the incremental side).
    EXPECT_GT(incremental.oracle_queries, 0u) << instance.name();
    EXPECT_EQ(scratch.oracle_queries, 0u) << instance.name();
  }
}

TEST(RepairEngine, OracleSessionCachesRankingGroupsAcrossCandidates) {
  const RepairEngine engine;
  const RepairReport report = engine.repair(spp::bad_gadget_chain(4));
  ASSERT_TRUE(report.repaired());
  EXPECT_GT(report.oracle_queries, 1u);
  // Candidates touch the BAD member's three nodes; every untouched node's
  // ranking group is encoded once and reused by every later query.
  EXPECT_GT(report.oracle_cache_hits, 0u);
}

// -------------------------------------------------- oracle budget reasons --

TEST(RepairEngine, EnumerateOracleReportsStateBudgetExhaustion) {
  RepairOptions options;
  options.ground_truth = groundtruth::Mode::enumerate;
  options.ground_truth_max_states = 4;  // even the gadget overflows this
  const RepairReport report = RepairEngine(options).repair(spp::bad_gadget());
  ASSERT_TRUE(report.repaired());
  EXPECT_EQ(report.best()->ground_truth, GroundTruth::not_applicable);
  EXPECT_EQ(report.best()->oracle_budget, groundtruth::BudgetStop::states);
  EXPECT_EQ(summarize(report).oracle_budget, "states");
  EXPECT_NE(to_json(report).find("\"oracle_budget\": \"states\""),
            std::string::npos);
}

TEST(RepairEngine, BudgetStoppedCandidatesAreNotApplicableNeverFailed) {
  // The verdict rule: `verified` and `failed` need an oracle that decided
  // (>= 1 stable assignment, or none). A budget that stops the oracle
  // leaves the solver verdict standing unverified — not_applicable, the
  // same verdict relax-edit candidates get, never a failure.
  RepairOptions options;
  options.ground_truth = groundtruth::Mode::enumerate;
  options.ground_truth_max_states = 4;
  for (const spp::SppInstance& instance :
       {spp::bad_gadget(), spp::disagree_gadget(), spp::ibgp_figure3_gadget(),
        spp::bad_gadget_chain(4)}) {
    const RepairReport report = RepairEngine(options).repair(instance);
    ASSERT_TRUE(report.repaired()) << instance.name();
    std::size_t budget_stopped = 0;
    for (const RepairCandidate& candidate : report.repairs) {
      SCOPED_TRACE(instance.name() + ": " + candidate.describe());
      EXPECT_EQ(candidate.ground_truth, GroundTruth::not_applicable);
      EXPECT_EQ(candidate.stable_assignments, 0u);
      if (candidate.oracle_budget == groundtruth::BudgetStop::states) {
        ++budget_stopped;
      }
    }
    EXPECT_GT(budget_stopped, 0u) << instance.name();
  }
}

TEST(RepairEngine, StarvedSatOracleStillReportsHonestly) {
  // Gadget-scale repaired candidates are decided by unit propagation, so a
  // one-conflict budget cannot make the sat-search oracle LIE — it either
  // still verifies or abstains with the conflicts reason (the session-level
  // conflicts stop itself is pinned down in test_groundtruth.cpp).
  RepairOptions options;
  options.ground_truth_max_conflicts = 1;
  const RepairReport report =
      RepairEngine(options).repair(spp::ibgp_figure3_gadget());
  ASSERT_TRUE(report.repaired());
  for (const RepairCandidate& candidate : report.repairs) {
    if (candidate.ground_truth == GroundTruth::not_applicable &&
        candidate.edits.front().kind != EditKind::relax_preference) {
      EXPECT_EQ(candidate.oracle_budget, groundtruth::BudgetStop::conflicts)
          << candidate.describe();
    }
    if (candidate.ground_truth == GroundTruth::verified) {
      EXPECT_GE(candidate.stable_assignments, 1u) << candidate.describe();
    }
  }
  // And the full-budget run verifies the same best repair.
  const RepairReport full = RepairEngine().repair(spp::ibgp_figure3_gadget());
  EXPECT_EQ(report.best()->describe(), full.best()->describe());
}

TEST(RepairEngine, SolutionBoundMarksCountsAsFloors) {
  RepairOptions options;
  options.ground_truth_max_solutions = 1;
  const RepairReport report =
      RepairEngine(options).repair(spp::disagree_gadget());
  ASSERT_TRUE(report.repaired());
  // Some repaired DISAGREE variants keep two stable states; capping the
  // enumeration at one makes the verdict exact but the count a floor.
  bool saw_solutions_stop = false;
  for (const RepairCandidate& candidate : report.repairs) {
    if (candidate.oracle_budget == groundtruth::BudgetStop::solutions) {
      saw_solutions_stop = true;
      EXPECT_EQ(candidate.ground_truth, GroundTruth::verified);
      EXPECT_EQ(candidate.stable_assignments, 1u);
    }
  }
  EXPECT_TRUE(saw_solutions_stop);
}

// -------------------------------------------------------------- beam search --

TEST(RepairEngine, BeamPruningKeepsTheCoreJustifiedRepair) {
  // A width-1 beam still repairs BAD: depth-1 candidates are evaluated
  // before pruning, and the surviving state is the most core-demanded one.
  RepairOptions options;
  options.beam_width = 1;
  options.max_edits = 2;
  const RepairReport report = RepairEngine(options).repair(spp::bad_gadget());
  ASSERT_TRUE(report.repaired());
  EXPECT_EQ(report.best()->edits.size(), 1u);
}

TEST(RepairEngine, BeamPruningIsCountedNeverSilent) {
  spp::SppInstance twin("twin-disagree");
  const auto add_pair = [&](const std::string& u, const std::string& v) {
    twin.add_edge(u, "0");
    twin.add_edge(v, "0");
    twin.add_edge(u, v);
    twin.add_permitted_path({u, v, "0"});
    twin.add_permitted_path({u, "0"});
    twin.add_permitted_path({v, u, "0"});
    twin.add_permitted_path({v, "0"});
  };
  add_pair("1", "2");
  add_pair("3", "4");

  RepairOptions wide;
  wide.beam_width = 0;  // exhaustive BFS: nothing is ever pruned
  const RepairReport unpruned = RepairEngine(wide).repair(twin);
  EXPECT_EQ(unpruned.beam_pruned, 0u);
  ASSERT_TRUE(unpruned.repaired());

  RepairOptions narrow;
  narrow.beam_width = 2;
  const RepairReport pruned = RepairEngine(narrow).repair(twin);
  EXPECT_GT(pruned.beam_pruned, 0u);
  EXPECT_NE(to_json(pruned).find("\"beam_pruned\": "), std::string::npos);
  // Core-frequency ranking keeps both disputes' edits in play: the
  // two-edit repair is still found through the width-2 beam.
  ASSERT_TRUE(pruned.repaired());
  EXPECT_EQ(pruned.best()->edits.size(), 2u);
  EXPECT_EQ(pruned.best()->ground_truth, GroundTruth::verified);
}

TEST(RepairEngine, ThreeDisputesNeedThreeEditsThroughTheBeam) {
  // Three disjoint DISAGREE pairs: minimal repair = one edit per dispute.
  // max_edits = 3 with the default beam stays tractable and exact.
  spp::SppInstance triple("triple-disagree");
  const auto add_pair = [&](const std::string& u, const std::string& v) {
    triple.add_edge(u, "0");
    triple.add_edge(v, "0");
    triple.add_edge(u, v);
    triple.add_permitted_path({u, v, "0"});
    triple.add_permitted_path({u, "0"});
    triple.add_permitted_path({v, u, "0"});
    triple.add_permitted_path({v, "0"});
  };
  add_pair("1", "2");
  add_pair("3", "4");
  add_pair("5", "6");

  RepairOptions options;
  options.max_edits = 3;
  options.max_checks = 4096;
  const RepairReport report = RepairEngine(options).repair(triple);
  ASSERT_TRUE(report.repaired());
  EXPECT_EQ(report.best()->edits.size(), 3u);
  EXPECT_EQ(report.best()->ground_truth, GroundTruth::verified);
  // The beam actually pruned (the depth-3 frontier outgrows the width),
  // yet a minimal verified repair survived.
  EXPECT_GT(report.beam_pruned, 0u);
}

// ----------------------------------------------------------------- digest --

TEST(RepairSummary, SummarizesTheBestCandidate) {
  const RepairEngine engine;
  const RepairSummary summary =
      summarize(engine.repair(spp::disagree_gadget()));
  EXPECT_TRUE(summary.attempted);
  EXPECT_TRUE(summary.solver_repaired);
  EXPECT_TRUE(summary.verified);
  EXPECT_EQ(summary.edit_count, 1u);
  ASSERT_EQ(summary.edits.size(), 1u);
  EXPECT_GT(summary.candidates_checked, 0u);
  EXPECT_GT(summary.solver_checks, 0u);
  EXPECT_TRUE(summary.error.empty());
}

TEST(RepairReport, RendersJsonAndText) {
  const RepairEngine engine;
  const RepairReport report = engine.repair(spp::bad_gadget());
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"instance\": \"bad-gadget\""), std::string::npos);
  EXPECT_NE(json.find("\"repaired\": true"), std::string::npos);
  EXPECT_NE(json.find("\"ground_truth\": \"verified\""), std::string::npos);
  EXPECT_EQ(json.find("wall_ms"), std::string::npos);  // deterministic only
  const std::string text = render_text(report);
  EXPECT_NE(text.find("repair report: bad-gadget"), std::string::npos);
  EXPECT_NE(text.find("minimal unsat core"), std::string::npos);
}

}  // namespace
}  // namespace fsr::repair
