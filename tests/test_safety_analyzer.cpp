// End-to-end tests of the automated safety analysis (Section IV),
// reproducing every verdict the paper reports:
//   * shortest hop-count: strictly monotone (sat);
//   * Gao-Rexford guideline A: strict unsat, plain monotone sat with the
//     witness model C=1, P=2, R=2;
//   * guideline A (x) hop-count: safe by the composition rule;
//   * GOOD/BAD/DISAGREE gadgets: safe / not provably safe / not provably
//     safe;
//   * the Figure-3 iBGP instance: eighteen constraints, unsat, with a
//     six-constraint minimal core touching only the reflectors a, b, c.
// The analyzer asserts typed terms straight into smt::Context; the Yices
// script it can emit is run through smt::YicesFrontend as a referee and
// must reproduce the analyzer's verdicts, models and cores.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "algebra/additive_algebra.h"
#include "algebra/lexical_product.h"
#include "algebra/standard_policies.h"
#include "fsr/constraint_encoder.h"
#include "fsr/incremental_session.h"
#include "fsr/safety_analyzer.h"
#include "groundtruth/engine.h"
#include "smt/yices_frontend.h"
#include "spp/gadgets.h"
#include "spp/random_instance.h"
#include "spp/translate.h"
#include "util/error.h"

namespace fsr {
namespace {

TEST(SafetyAnalyzer, HopCountIsStrictlyMonotone) {
  const auto hop_count = algebra::shortest_hop_count();
  const auto report = SafetyAnalyzer().analyze(*hop_count);
  EXPECT_EQ(report.verdict, SafetyVerdict::safe);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_TRUE(report.checks[0].holds);
  // The emitted script carries the paper's forall template.
  EXPECT_NE(SafetyAnalyzer::emit_yices_script(hop_count->symbolic(),
                                              MonotonicityMode::strict)
                .find("(assert (forall (s::Sig) (< s (+ s 1))))"),
            std::string::npos);
}

TEST(SafetyAnalyzer, ZeroWeightIgpCostIsMonotoneOnly) {
  const auto algebra = algebra::igp_cost({0, 3});
  const auto report = SafetyAnalyzer().analyze(*algebra);
  EXPECT_EQ(report.verdict, SafetyVerdict::not_provably_safe);
  ASSERT_EQ(report.checks.size(), 2u);
  EXPECT_FALSE(report.checks[0].holds);  // strict fails on the 0 weight
  EXPECT_TRUE(report.checks[1].holds);   // plain holds
}

TEST(SafetyAnalyzer, GaoRexfordStrictFailsPlainHoldsWithPaperModel) {
  const auto report =
      SafetyAnalyzer().analyze(*algebra::gao_rexford_guideline_a());
  EXPECT_EQ(report.verdict, SafetyVerdict::not_provably_safe);
  ASSERT_EQ(report.checks.size(), 2u);

  const MonotonicityReport& strict = report.checks[0];
  EXPECT_FALSE(strict.holds);
  EXPECT_EQ(strict.preference_constraint_count, 3u);
  EXPECT_EQ(strict.monotonicity_constraint_count, 5u);
  // The minimal core pins a self-loop entry (c (+) C = C or p (+) P = P).
  ASSERT_EQ(strict.unsat_core.size(), 1u);
  EXPECT_EQ(strict.unsat_core[0].kind,
            ConstraintProvenance::Kind::monotonicity);

  const MonotonicityReport& plain = report.checks[1];
  EXPECT_TRUE(plain.holds);
  EXPECT_EQ(plain.model.at("C"), 1);
  EXPECT_EQ(plain.model.at("P"), 2);
  EXPECT_EQ(plain.model.at("R"), 2);
}

TEST(SafetyAnalyzer, GaoRexfordWithHopCountIsSafeByComposition) {
  const auto report =
      SafetyAnalyzer().analyze(*algebra::gao_rexford_with_hop_count());
  EXPECT_EQ(report.verdict, SafetyVerdict::safe);
  // Factor 1 strict fails, factor 1 plain holds, factor 2 strict holds.
  ASSERT_EQ(report.checks.size(), 3u);
  EXPECT_FALSE(report.checks[0].holds);
  EXPECT_TRUE(report.checks[1].holds);
  EXPECT_TRUE(report.checks[2].holds);
}

TEST(SafetyAnalyzer, WidestShortestIsSafeByComposition) {
  const auto report =
      SafetyAnalyzer().analyze(*algebra::widest_shortest({10, 100, 1000}));
  EXPECT_EQ(report.verdict, SafetyVerdict::safe);
}

TEST(SafetyAnalyzer, AllMonotoneNoStrictFactorIsNotProvablySafe) {
  // bandwidth (x) bandwidth: both factors monotone-only.
  const auto product =
      algebra::lexical_product(algebra::bandwidth_classes({10, 100}),
                               algebra::bandwidth_classes({10, 100}));
  const auto report = SafetyAnalyzer().analyze(*product);
  EXPECT_EQ(report.verdict, SafetyVerdict::not_provably_safe);
}

TEST(SafetyAnalyzer, NonMonotoneFirstFactorStopsComposition) {
  // BAD gadget algebra as primary factor: not even monotone.
  const auto bad = spp::algebra_from_spp(spp::bad_gadget());
  const auto product =
      algebra::lexical_product(bad, algebra::shortest_hop_count());
  const auto report = SafetyAnalyzer().analyze(*product);
  EXPECT_EQ(report.verdict, SafetyVerdict::not_provably_safe);
  ASSERT_EQ(report.checks.size(), 2u);
  EXPECT_FALSE(report.checks[1].holds);  // plain also fails
}

TEST(SafetyAnalyzer, GoodGadgetIsSafe) {
  const auto report =
      SafetyAnalyzer().analyze(*spp::algebra_from_spp(spp::good_gadget()));
  EXPECT_EQ(report.verdict, SafetyVerdict::safe);
}

TEST(SafetyAnalyzer, BadGadgetIsNotProvablySafe) {
  const auto report =
      SafetyAnalyzer().analyze(*spp::algebra_from_spp(spp::bad_gadget()));
  EXPECT_EQ(report.verdict, SafetyVerdict::not_provably_safe);
  const auto* core = report.failing_core();
  ASSERT_NE(core, nullptr);
  // The dispute cycle of BAD GADGET involves all three nodes' rankings and
  // all three monotonicity constraints: a 6-element core.
  EXPECT_EQ(core->size(), 6u);
}

TEST(SafetyAnalyzer, DisagreeIsNotProvablySafe) {
  // Known false positive of the strict-monotonicity test: DISAGREE always
  // converges in practice, yet is not strictly monotone (the paper reports
  // the same verdict).
  const auto report = SafetyAnalyzer().analyze(
      *spp::algebra_from_spp(spp::disagree_gadget()));
  EXPECT_EQ(report.verdict, SafetyVerdict::not_provably_safe);
}

TEST(SafetyAnalyzer, Figure3EighteenConstraintsUnsat) {
  const auto a = spp::algebra_from_spp(spp::ibgp_figure3_gadget());
  const auto report = SafetyAnalyzer().analyze(*a);
  EXPECT_EQ(report.verdict, SafetyVerdict::not_provably_safe);
  const MonotonicityReport& strict = report.checks[0];
  EXPECT_EQ(
      strict.preference_constraint_count + strict.monotonicity_constraint_count,
      18u);
}

TEST(SafetyAnalyzer, Figure3CoreTouchesOnlyReflectors) {
  const auto a = spp::algebra_from_spp(spp::ibgp_figure3_gadget());
  const auto report = SafetyAnalyzer().analyze(*a);
  const auto* core = report.failing_core();
  ASSERT_NE(core, nullptr);
  EXPECT_EQ(core->size(), 6u);  // the oscillation cycle, minimal
  // Every core constraint mentions only reflector paths (a, b, c routes);
  // the egress nodes d, e, f never appear — the paper's diagnostic.
  for (const auto& prov : *core) {
    EXPECT_EQ(prov.description.find("d-a-"), std::string::npos) << prov.description;
    EXPECT_EQ(prov.description.find("e-b-"), std::string::npos) << prov.description;
    EXPECT_EQ(prov.description.find("f-c-"), std::string::npos) << prov.description;
    EXPECT_EQ(prov.description.find("rank at d"), std::string::npos);
    EXPECT_EQ(prov.description.find("rank at e"), std::string::npos);
    EXPECT_EQ(prov.description.find("rank at f"), std::string::npos);
  }
}

TEST(SafetyAnalyzer, Figure3FixedIsSafe) {
  const auto a = spp::algebra_from_spp(spp::ibgp_figure3_fixed());
  const auto report = SafetyAnalyzer().analyze(*a);
  EXPECT_EQ(report.verdict, SafetyVerdict::safe);
}

TEST(SafetyAnalyzer, PipelinesAgree) {
  // The emitted script, run through the Yices-style frontend, must mean
  // exactly what the analyzer solved: same verdicts, models and cores for
  // all the standard cases.
  const std::vector<algebra::AlgebraPtr> algebras = {
      algebra::shortest_hop_count(),
      algebra::gao_rexford_guideline_a(),
      algebra::gao_rexford_guideline_b(),
      algebra::backup_routing(),
      spp::algebra_from_spp(spp::good_gadget()),
      spp::algebra_from_spp(spp::bad_gadget()),
      spp::algebra_from_spp(spp::disagree_gadget()),
      spp::algebra_from_spp(spp::ibgp_figure3_gadget()),
  };
  for (const auto& algebra : algebras) {
    const SafetyReport report = SafetyAnalyzer().analyze(*algebra);
    std::vector<const algebra::RoutingAlgebra*> leaves =
        algebra->lexical_factors();
    if (leaves.empty()) leaves.push_back(algebra.get());
    for (const MonotonicityReport& check : report.checks) {
      const auto leaf = std::find_if(
          leaves.begin(), leaves.end(),
          [&](const auto* a) { return a->name() == check.algebra_name; });
      ASSERT_NE(leaf, leaves.end()) << check.algebra_name;
      const algebra::SymbolicSpec spec = (*leaf)->symbolic();
      const smt::CheckOutcome outcome =
          smt::YicesFrontend()
              .run_script(SafetyAnalyzer::emit_yices_script(spec, check.mode))
              .single_check();
      EXPECT_EQ(outcome.status == smt::Status::sat, check.holds)
          << check.algebra_name;

      const encoding::SymbolTable symbols(spec.signatures);
      std::map<std::string, std::int64_t> model;
      for (const auto& [symbol, value] : outcome.model.values) {
        model[symbols.original(symbol)] = value;
      }
      EXPECT_EQ(model, check.model.values) << check.algebra_name;

      const encoding::Encoding enc =
          encoding::encode(spec, check.mode, symbols);
      ASSERT_EQ(outcome.core_ids.size(), check.unsat_core.size())
          << check.algebra_name;
      for (std::size_t j = 0; j < outcome.core_ids.size(); ++j) {
        const auto index = static_cast<std::size_t>(outcome.core_ids[j]);
        ASSERT_LT(index, enc.provenance.size());
        EXPECT_EQ(enc.provenance[index].description,
                  check.unsat_core[j].description);
        EXPECT_EQ(outcome.core_texts[j], check.unsat_core[j].constraint);
      }
    }
  }
}

TEST(SafetyAnalyzer, EmittedScriptMatchesPaperShape) {
  const std::string script = SafetyAnalyzer::emit_yices_script(
      algebra::gao_rexford_guideline_a()->symbolic(),
      MonotonicityMode::strict);
  EXPECT_NE(script.find("(define-type Sig (subtype (n::nat) (> n 0)))"),
            std::string::npos);
  EXPECT_NE(script.find("(define C::Sig)"), std::string::npos);
  EXPECT_NE(script.find(";; route preference constraints"),
            std::string::npos);
  EXPECT_NE(script.find(";; strict monotonicity constraints"),
            std::string::npos);
  EXPECT_NE(script.find("(check)"), std::string::npos);
}

TEST(SafetyAnalyzer, NarrativeSuggestsCompositionForMonotoneAlgebras) {
  const auto report =
      SafetyAnalyzer().analyze(*algebra::gao_rexford_guideline_a());
  EXPECT_NE(report.narrative.find("tie-breaker"), std::string::npos);
}

// Unsat-core *minimality* on the gadget library: every reported core
// element is necessary — removing any single one flips the check to sat.
TEST(SafetyAnalyzer, GadgetLibraryCoresAreMinimal) {
  const std::vector<spp::SppInstance> unsafe_gadgets = {
      spp::bad_gadget(), spp::disagree_gadget(), spp::ibgp_figure3_gadget()};
  for (const spp::SppInstance& gadget : unsafe_gadgets) {
    const auto algebra = spp::algebra_from_spp(gadget);
    IncrementalSafetySession session =
        SafetyAnalyzer::open_incremental(*algebra, MonotonicityMode::strict);
    const auto full = session.check({});
    ASSERT_FALSE(full.holds) << gadget.name();
    ASSERT_FALSE(full.core.empty()) << gadget.name();

    // The core must itself be unsatisfiable even with everything else
    // removed, and minimal: dropping any one member restores sat.
    std::vector<std::size_t> non_core;
    for (std::size_t i = 0; i < session.constraint_count(); ++i) {
      if (std::find(full.core.begin(), full.core.end(), i) ==
          full.core.end()) {
        non_core.push_back(i);
      }
    }
    std::vector<std::size_t> everything(session.constraint_count());
    for (std::size_t i = 0; i < everything.size(); ++i) everything[i] = i;
    session.make_variable(everything);
    EXPECT_FALSE(session.check(full.core).holds) << gadget.name();
    for (std::size_t i = 0; i < full.core.size(); ++i) {
      std::vector<std::size_t> keep = non_core;
      for (std::size_t j = 0; j < full.core.size(); ++j) {
        if (j != i) keep.push_back(full.core[j]);
      }
      EXPECT_TRUE(session.check(keep).holds)
          << gadget.name() << ": core element '"
          << session.provenance(full.core[i]).description
          << "' is not necessary";
    }
  }
}

// The incremental session must agree with the per-call analyzer on every
// standard case and on seeded random instances (the wire's
// {"random": {"seed": s}}): same verdicts, same core provenance — the core
// analyze-safety reports is the initial core repair starts from.
TEST(IncrementalSession, AgreesWithAnalyzer) {
  std::vector<algebra::AlgebraPtr> algebras = {
      algebra::gao_rexford_guideline_a(),
      spp::algebra_from_spp(spp::good_gadget()),
      spp::algebra_from_spp(spp::bad_gadget()),
      spp::algebra_from_spp(spp::disagree_gadget()),
      spp::algebra_from_spp(spp::ibgp_figure3_gadget()),
      spp::algebra_from_spp(spp::ibgp_figure3_fixed()),
  };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    algebras.push_back(spp::algebra_from_spp(spp::random_spp_instance(
        "random-" + std::to_string(seed), seed, spp::RandomSppSweep{})));
  }
  for (const auto& algebra : algebras) {
    const MonotonicityReport analyzed = SafetyAnalyzer().check_monotonicity(
        *algebra, MonotonicityMode::strict);
    IncrementalSafetySession session =
        SafetyAnalyzer::open_incremental(*algebra, MonotonicityMode::strict);
    const auto result = session.check({});
    EXPECT_EQ(result.holds, analyzed.holds) << algebra->name();
    if (!result.holds) {
      ASSERT_EQ(result.core.size(), analyzed.unsat_core.size())
          << algebra->name();
      for (std::size_t i = 0; i < result.core.size(); ++i) {
        EXPECT_EQ(session.provenance(result.core[i]).description,
                  analyzed.unsat_core[i].description);
      }
    }
  }
}

TEST(IncrementalSession, ExtrasInTheCoreAreReportedByIndex) {
  // A counterexample can run through constraints a check introduced itself
  // (per-check extras); the session must surface them so the repair search
  // can branch on them instead of silently dying.
  const auto algebra = spp::algebra_from_spp(spp::good_gadget());
  IncrementalSafetySession session =
      SafetyAnalyzer::open_incremental(*algebra, MonotonicityMode::strict);
  // Retract the whole base so the only possible cycle is the two extras.
  std::vector<std::size_t> everything(session.constraint_count());
  for (std::size_t i = 0; i < everything.size(); ++i) everything[i] = i;
  session.make_variable(everything);
  std::vector<IncrementalSafetySession::Extra> extras = {
      {algebra::PrefRel::strictly_better, "r(1-0)", "r(2-0)", "one"},
      {algebra::PrefRel::strictly_better, "r(2-0)", "r(1-0)", "two"},
  };
  const auto result = session.check({}, extras);
  ASSERT_FALSE(result.holds);
  EXPECT_TRUE(result.core.empty());  // the cycle is purely the extras
  EXPECT_EQ(result.extra_core, (std::vector<std::size_t>{0, 1}));
}

TEST(IncrementalSession, RepeatedChecksReuseTheEngine) {
  const auto algebra = spp::algebra_from_spp(spp::bad_gadget());
  IncrementalSafetySession session =
      SafetyAnalyzer::open_incremental(*algebra, MonotonicityMode::strict);
  const auto first = session.check({});
  ASSERT_FALSE(first.holds);
  session.make_variable(first.core);
  for (int round = 0; round < 5; ++round) {
    // Dropping any single core member must flip the gadget to provably
    // safe, and each re-check shares the one engine base.
    std::vector<std::size_t> keep;
    for (std::size_t j = 0; j < first.core.size(); ++j) {
      if (j != static_cast<std::size_t>(round % first.core.size())) {
        keep.push_back(first.core[j]);
      }
    }
    EXPECT_TRUE(session.check(keep).holds);
  }
  EXPECT_EQ(session.check_count(), 6u);
  EXPECT_LE(session.engine_rebuilds(), 2u);
}

// Agreement sweep between the solver verdict and the exact ground-truth
// backends: a SAFE verdict is a proof of strict monotonicity, which (by
// Sobrinho / Griffin-Shepherd-Wilfong) implies a UNIQUE stable assignment
// — so both oracles must report exactly one on every provably-safe SPP
// instance, gadget or random. (The converse is not checked: not-provably-
// safe instances may have any number of stable states — DISAGREE has two,
// BAD none — which is the false-positive caveat the paper itself makes.)
TEST(SafetyAnalyzer, SafeVerdictImpliesUniqueStableAssignmentBothOracles) {
  const SafetyAnalyzer analyzer;
  const auto sat =
      groundtruth::make_engine(groundtruth::Mode::sat_search);
  const auto enumerate =
      groundtruth::make_engine(groundtruth::Mode::enumerate);

  std::vector<spp::SppInstance> instances = {
      spp::good_gadget(), spp::bad_gadget(), spp::disagree_gadget(),
      spp::ibgp_figure3_gadget(), spp::ibgp_figure3_fixed(),
      spp::good_gadget_chain(4), spp::bad_gadget_chain(3)};
  for (int i = 0; i < 20; ++i) {
    instances.push_back(spp::random_spp_instance(
        "sweep-" + std::to_string(i), 500 + static_cast<std::uint64_t>(i),
        spp::RandomSppSweep{}));
  }

  std::size_t safe_seen = 0;
  for (const spp::SppInstance& instance : instances) {
    const SafetyReport report =
        analyzer.analyze(*spp::algebra_from_spp(instance));
    if (report.verdict != SafetyVerdict::safe) continue;
    ++safe_seen;
    const groundtruth::Result via_sat = sat->analyze(instance);
    ASSERT_TRUE(via_sat.decided) << instance.name();
    EXPECT_TRUE(via_sat.has_stable) << instance.name();
    EXPECT_EQ(via_sat.count, 1u) << instance.name();
    EXPECT_TRUE(via_sat.count_exact) << instance.name();
    const groundtruth::Result via_enum = enumerate->analyze(instance);
    ASSERT_TRUE(via_enum.decided) << instance.name();
    EXPECT_EQ(via_enum.count, 1u) << instance.name();
  }
  EXPECT_GT(safe_seen, 2u);  // the sweep actually hit safe instances
}

// The safety analyzer's big win over enumeration-backed validation: on a
// Rocketfuel-shaped chain whose state space dwarfs any enumeration cap,
// the solver verdict and the CDCL ground truth still cross-validate.
TEST(SafetyAnalyzer, SatSearchCrossValidatesBeyondEnumeration) {
  const spp::SppInstance chain = spp::good_gadget_chain(16);  // 3^48 states
  const SafetyReport report =
      SafetyAnalyzer().analyze(*spp::algebra_from_spp(chain));
  EXPECT_EQ(report.verdict, SafetyVerdict::safe);
  const auto result =
      groundtruth::make_engine(groundtruth::Mode::sat_search)->analyze(chain);
  ASSERT_TRUE(result.decided);
  EXPECT_EQ(result.count, 1u);
  EXPECT_TRUE(result.count_exact);
  ASSERT_TRUE(result.witness.has_value());
  EXPECT_TRUE(spp::is_stable_assignment(chain, *result.witness));
  // Enumeration cannot even start here.
  EXPECT_THROW((void)spp::enumerate_stable_assignments(chain),
               InvalidArgument);
}

TEST(SafetyAnalyzer, SolveTimeIsRecorded) {
  const auto report =
      SafetyAnalyzer().analyze(*spp::algebra_from_spp(spp::bad_gadget()));
  EXPECT_GT(report.total_solve_time_ms(), 0.0);
  // Gadget-scale analyses complete well under the paper's 100 ms budget.
  EXPECT_LT(report.total_solve_time_ms(), 100.0);
}

}  // namespace
}  // namespace fsr
