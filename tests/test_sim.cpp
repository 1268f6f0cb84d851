// Tests for the event-driven SPVP simulator (src/sim): seeded-schedule
// determinism (same seed => the identical event trace), convergence on the
// safe gadget library, exact oscillation detection on the unsafe members,
// churn scenarios, MRAI batching, and option validation. The 100-seed
// differential sweep against the SAT oracle lives in test_differential.cpp
// (fuzz label); this file is the fast lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "groundtruth/engine.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "spp/gadgets.h"
#include "spp/random_instance.h"
#include "spp/spp.h"
#include "topology/rocketfuel.h"
#include "util/error.h"

namespace fsr::sim {
namespace {

SimResult run_gadget(const std::string& name, SimOptions options) {
  return simulate(spp::gadget_by_name(name), options);
}

// ------------------------------------------------------------ scenarios --

TEST(Sim, ScenarioNamesAreTheDocumentedFour) {
  const std::vector<std::string> expected = {"steady", "staged", "link-flap",
                                             "session-reset"};
  EXPECT_EQ(scenario_names(), expected);
  for (const std::string& name : expected) {
    EXPECT_TRUE(is_scenario_name(name)) << name;
  }
  EXPECT_FALSE(is_scenario_name("earthquake"));
  EXPECT_FALSE(is_scenario_name(""));
}

TEST(Sim, SuppressionNamesAreTheDocumentedThree) {
  const std::vector<std::string> expected = {"none", "split-horizon",
                                             "poisoned-reverse"};
  EXPECT_EQ(suppression_names(), expected);
  for (const std::string& name : expected) {
    EXPECT_TRUE(is_suppression_name(name)) << name;
  }
  EXPECT_FALSE(is_suppression_name("route-dampening"));
  EXPECT_FALSE(is_suppression_name(""));
}

TEST(Sim, InvalidOptionsThrow) {
  SimOptions bad_scenario;
  bad_scenario.scenario = "earthquake";
  EXPECT_THROW(run_gadget("good", bad_scenario), InvalidArgument);
  SimOptions no_budget;
  no_budget.max_steps = 0;
  EXPECT_THROW(run_gadget("good", no_budget), InvalidArgument);
  SimOptions bad_suppression;
  bad_suppression.suppression = "carrier-pigeon";
  EXPECT_THROW(run_gadget("good", bad_suppression), InvalidArgument);
  SimOptions bad_detector;
  bad_detector.detector = "quantum";
  EXPECT_THROW(run_gadget("good", bad_detector), InvalidArgument);
}

// ---------------------------------------------------------- determinism --

TEST(Sim, SameSeedReproducesTheIdenticalEventTrace) {
  for (const char* gadget : {"good", "bad", "disagree", "ibgp-figure3"}) {
    for (const std::string& scenario : scenario_names()) {
      SimOptions options;
      options.seed = 42;
      options.scenario = scenario;
      options.record_trace = true;
      const SimResult first = run_gadget(gadget, options);
      const SimResult second = run_gadget(gadget, options);
      ASSERT_FALSE(first.trace.empty()) << gadget << "/" << scenario;
      EXPECT_EQ(first.trace, second.trace) << gadget << "/" << scenario;
      EXPECT_EQ(first.steps, second.steps) << gadget << "/" << scenario;
      EXPECT_EQ(first.messages, second.messages) << gadget << "/" << scenario;
      EXPECT_EQ(first.final_assignment, second.final_assignment)
          << gadget << "/" << scenario;
    }
  }
}

TEST(Sim, SeedsActuallySteerTheSchedule) {
  // Across 16 seeds the staged scenario must produce more than one distinct
  // trace — otherwise the seed is decorative and the sweep in
  // test_differential.cpp explores nothing.
  std::set<std::vector<std::string>> traces;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SimOptions options;
    options.seed = seed;
    options.scenario = "staged";
    options.record_trace = true;
    traces.insert(run_gadget("good", options).trace);
  }
  EXPECT_GT(traces.size(), 1u);
}

// ---------------------------------------------- convergence/oscillation --

TEST(Sim, GoodGadgetConvergesToItsUniqueStableAssignment) {
  const spp::SppInstance instance = spp::good_gadget();
  const groundtruth::Result truth =
      groundtruth::make_engine(groundtruth::Mode::enumerate)->analyze(instance);
  ASSERT_TRUE(truth.has_stable);
  ASSERT_TRUE(truth.witness.has_value());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SimOptions options;
    options.seed = seed;
    const SimResult run = simulate(instance, options);
    EXPECT_TRUE(run.converged) << "seed " << seed;
    EXPECT_FALSE(run.oscillating) << "seed " << seed;
    EXPECT_TRUE(run.fixed_point_stable) << "seed " << seed;
    EXPECT_EQ(run.final_assignment, *truth.witness) << "seed " << seed;
    EXPECT_GT(run.messages, 0u) << "seed " << seed;
    EXPECT_LE(run.convergence_tick, run.ticks) << "seed " << seed;
  }
}

TEST(Sim, BadGadgetOscillatesUnderEverySeedAndScenario) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const std::string& scenario : scenario_names()) {
      SimOptions options;
      options.seed = seed;
      options.scenario = scenario;
      const SimResult run = run_gadget("bad", options);
      EXPECT_FALSE(run.converged) << seed << "/" << scenario;
      EXPECT_TRUE(run.oscillating) << seed << "/" << scenario;
      EXPECT_GT(run.cycle_length, 0u) << seed << "/" << scenario;
    }
  }
}

TEST(Sim, DisagreeFixedPointsAreAlwaysOneOfItsTwoStableStates) {
  // DISAGREE has exactly two stable assignments; under the symmetric
  // steady schedule it livelocks (the classic flap), but staged activation
  // breaks the tie for most seeds — and whenever a run terminates it must
  // land on one of the two.
  const spp::SppInstance instance = spp::disagree_gadget();
  const groundtruth::Result truth =
      groundtruth::make_engine(groundtruth::Mode::enumerate)->analyze(instance);
  ASSERT_EQ(truth.count, 2u);
  std::size_t converged = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SimOptions options;
    options.seed = seed;
    options.scenario = "staged";
    const SimResult run = simulate(instance, options);
    if (!run.converged) continue;
    ++converged;
    EXPECT_TRUE(run.fixed_point_stable) << "seed " << seed;
    EXPECT_TRUE(spp::is_stable_assignment(instance, run.final_assignment))
        << "seed " << seed;
  }
  EXPECT_GT(converged, 0u);
}

// ------------------------------------------------------- churn and MRAI --

TEST(Sim, ChurnScenariosStillConvergeOnSafeInstances) {
  for (const char* gadget : {"good", "ibgp-figure3-fixed", "good-chain-3"}) {
    for (const std::string& scenario :
         {std::string("link-flap"), std::string("session-reset")}) {
      SimOptions options;
      options.seed = 5;
      options.scenario = scenario;
      const SimResult run = run_gadget(gadget, options);
      EXPECT_TRUE(run.converged) << gadget << "/" << scenario;
      EXPECT_TRUE(run.fixed_point_stable) << gadget << "/" << scenario;
      EXPECT_EQ(run.scenario, scenario) << gadget;
    }
  }
}

TEST(Sim, LinkFlapCostsMessagesOverSteadyState) {
  // The flap forces withdrawals and re-announcements, so a flapped run of
  // the same (instance, seed) can never use fewer messages than steady.
  SimOptions steady;
  steady.seed = 9;
  const SimResult calm = run_gadget("good-chain-3", steady);
  SimOptions flap = steady;
  flap.scenario = "link-flap";
  const SimResult flapped = run_gadget("good-chain-3", flap);
  EXPECT_TRUE(calm.converged);
  EXPECT_TRUE(flapped.converged);
  EXPECT_GE(flapped.messages, calm.messages);
}

TEST(Sim, MraiBatchingConvergesToTheSameFixedPoint) {
  SimOptions plain;
  plain.seed = 3;
  const SimResult triggered = run_gadget("good", plain);
  SimOptions batched = plain;
  batched.mrai_ticks = 5;
  const SimResult mrai = run_gadget("good", batched);
  ASSERT_TRUE(triggered.converged);
  ASSERT_TRUE(mrai.converged);
  // MRAI delays and batches updates but must not change the destination:
  // GOOD has a unique stable assignment.
  EXPECT_EQ(mrai.final_assignment, triggered.final_assignment);
  EXPECT_TRUE(mrai.fixed_point_stable);
}

TEST(Sim, StepBudgetCutsOffUndecidedRuns) {
  SimOptions options;
  options.max_steps = 3;  // far below BAD's first state repeat
  const SimResult run = run_gadget("bad", options);
  EXPECT_FALSE(run.converged);
  EXPECT_FALSE(run.oscillating);
  EXPECT_TRUE(run.cutoff);
  EXPECT_EQ(run.steps, 3u);
}

TEST(Sim, CutoffRunsCarryNoFixedPoint) {
  // A truncated run's mid-flight selections are not a fixed point: the
  // result must not smuggle them out as one (the wire layer renders this
  // contract, so it is load-bearing beyond the struct).
  SimOptions options;
  options.max_steps = 3;
  const SimResult cut = run_gadget("bad", options);
  ASSERT_TRUE(cut.cutoff);
  EXPECT_TRUE(cut.final_assignment.empty());
  EXPECT_FALSE(cut.fixed_point_stable);
  // Decided runs never report cutoff.
  const SimResult decided = run_gadget("bad", SimOptions{});
  ASSERT_TRUE(decided.oscillating);
  EXPECT_FALSE(decided.cutoff);
  const SimResult quiesced = run_gadget("good", SimOptions{});
  ASSERT_TRUE(quiesced.converged);
  EXPECT_FALSE(quiesced.cutoff);
  EXPECT_FALSE(quiesced.final_assignment.empty());
}

TEST(Sim, RandomInstanceHitsTheStepCutoff) {
  // {"kind": "simulate", "random": {"seed": 101}, "seed": 1}: a 3-node
  // instance whose steady run neither quiesces nor repeats a state within
  // the default 100,000-step budget. The wire renders exactly this cutoff.
  const spp::SppInstance instance =
      spp::random_spp_instance("random-101", 101, spp::RandomSppSweep{});
  ASSERT_EQ(instance.nodes().size(), 3u);
  const SimResult run = simulate(instance, SimOptions{});
  EXPECT_TRUE(run.cutoff);
  EXPECT_FALSE(run.converged);
  EXPECT_FALSE(run.oscillating);
  EXPECT_EQ(run.steps, 100000u);
  EXPECT_EQ(run.ticks, 320u);
  EXPECT_EQ(run.messages, 101146u);
  EXPECT_EQ(run.route_changes, 50573u);
  EXPECT_TRUE(run.final_assignment.empty());
  EXPECT_FALSE(run.fixed_point_stable);
}

// -------------------------------------------------------------- suppression --

TEST(Sim, SuppressionPoliciesAreEchoedAndStillDecideSafeInstances) {
  for (const std::string& policy : suppression_names()) {
    SimOptions options;
    options.seed = 7;
    options.suppression = policy;
    const SimResult run = run_gadget("good", options);
    EXPECT_EQ(run.suppression, policy);
    EXPECT_TRUE(run.converged) << policy;
    EXPECT_FALSE(run.cutoff) << policy;
  }
}

TEST(Sim, SplitHorizonNeverSendsMoreThanUnsuppressed) {
  // Split horizon only ever drops advertisements (towards the selected next
  // hop); for a fixed (instance, seed) it cannot generate message traffic
  // the unsuppressed run would not have.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SimOptions plain;
    plain.seed = seed;
    const SimResult none = run_gadget("good-chain-3", plain);
    SimOptions horizon = plain;
    horizon.suppression = "split-horizon";
    const SimResult suppressed = run_gadget("good-chain-3", horizon);
    EXPECT_LE(suppressed.messages, none.messages) << "seed " << seed;
  }
}

// ---------------------------------------------------------------- detectors --

std::string result_fingerprint(const SimResult& run) {
  std::string out;
  out += run.converged ? 'C' : '-';
  out += run.oscillating ? 'O' : '-';
  out += run.cutoff ? 'X' : '-';
  out += '|' + std::to_string(run.steps) + '|' + std::to_string(run.ticks);
  out += '|' + std::to_string(run.messages);
  out += '|' + std::to_string(run.route_changes);
  out += '|' + std::to_string(run.convergence_tick);
  out += '|' + std::to_string(run.cycle_length);
  out += run.fixed_point_stable ? "|S" : "|-";
  for (const auto& [node, path] : run.final_assignment) {
    out += '|' + node + '=' + spp::path_name(path);
  }
  return out;
}

TEST(Sim, IncrementalAndCanonicalDetectorsAgreeOnEveryField) {
  // The fast lane of the 100-seed sweep in test_differential.cpp: both
  // detectors must report byte-identical results on a converging, an
  // oscillating, and a tie-breaking instance.
  for (const char* gadget : {"good", "bad", "disagree"}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SimOptions incremental;
      incremental.seed = seed;
      SimOptions canonical = incremental;
      canonical.detector = "canonical";
      EXPECT_EQ(result_fingerprint(run_gadget(gadget, incremental)),
                result_fingerprint(run_gadget(gadget, canonical)))
          << gadget << " seed " << seed;
    }
  }
}

TEST(Sim, ForcedHashCollisionsAreVerifiedAwayAndCounted) {
  // detector_hash_mask=0 makes every state hash identical, so every
  // post-churn step looks like a cycle candidate. Canonical verification
  // must reject the fakes (counting them) and the reported result must be
  // byte-identical to the honest-hash run — a collision can never fake a
  // cycle, only cost time.
  const std::uint64_t before =
      obs::registry().counter("sim.hash_collisions").value();
  SimOptions honest;
  honest.seed = 11;
  SimOptions colliding = honest;
  colliding.detector_hash_mask = 0;
  for (const char* gadget : {"good", "bad"}) {
    EXPECT_EQ(result_fingerprint(run_gadget(gadget, honest)),
              result_fingerprint(run_gadget(gadget, colliding)))
        << gadget;
  }
  const std::uint64_t after =
      obs::registry().counter("sim.hash_collisions").value();
  // BAD oscillates after a multi-step prefix: the all-collisions run must
  // have hit (and rejected) at least one fake match before the real repeat.
  EXPECT_GT(after, before);
}

TEST(Sim, RocketfuelOutlierLocatesItsRepeatThroughSameTickCollisions) {
  // The campaign's slowest simulation: rocketfuel/seed3+gadget-ppe4
  // (simulated) at campaign seed 645809581. Its post-churn states include
  // 197 hash-equal pairs whose canonical strings differ only in the order
  // of same-tick deliveries (the order-free queue sum cannot see it); the
  // mu search must reject each of them and still stop on the true repeat.
  topology::RocketfuelParams params;
  params.seed = 3;
  params.embed_gadget = true;
  params.paths_per_egress = 4;
  const spp::SppInstance instance =
      topology::build_rocketfuel_ibgp(params).instance;
  SimOptions options;
  options.seed = 5818642209540019346ULL;
  const std::uint64_t before =
      obs::registry().counter("sim.hash_collisions").value();
  const SimResult run = simulate(instance, options);
  const std::uint64_t after =
      obs::registry().counter("sim.hash_collisions").value();
  EXPECT_TRUE(run.oscillating);
  EXPECT_FALSE(run.converged);
  EXPECT_EQ(run.steps, 2605u);
  EXPECT_EQ(run.ticks, 36u);
  EXPECT_EQ(run.messages, 2679u);
  EXPECT_EQ(run.route_changes, 509u);
  EXPECT_EQ(run.cycle_length, 1308u);
  EXPECT_EQ(after - before, 197u);
}

}  // namespace
}  // namespace fsr::sim
