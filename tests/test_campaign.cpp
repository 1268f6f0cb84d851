// Tests for the scenario-campaign engine: deterministic seed derivation,
// source generation, content canonicalization, in-run deduplication,
// cross-run caching, parallel-vs-serial report identity (the subsystem's
// core contract), and the JSON/table renderers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>

#include "api/json.h"
#include "campaign/cache.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/scenario.h"
#include "algebra/standard_policies.h"
#include "campaign/scenario_source.h"
#include "obs/metrics.h"
#include "spp/gadgets.h"
#include "topology/as_hierarchy.h"
#include "util/error.h"

namespace fsr::campaign {
namespace {

/// The scenario's cache key, keyed from its compiled primary request the
/// way the runner compiles it (safety: analyze-safety; emulation and
/// simulation: the seeded request under `sim`'s churn regime).
std::string key_of(const Scenario& scenario, bool attempt_repair = false,
                   const repair::RepairOptions& repair = {},
                   const sim::SimOptions& sim = {}) {
  api::Request request;
  if (scenario.kind == ScenarioKind::safety) {
    request = api::AnalyzeSafetyRequest{scenario.algebra, scenario.spp};
  } else if (scenario.kind == ScenarioKind::simulation) {
    api::SimulateRequest simulate;
    simulate.spp = scenario.spp;
    simulate.seed = scenario.seed;
    simulate.scenario = sim.scenario;
    simulate.suppression = sim.suppression;
    request = simulate;
  } else {
    request = api::EmulateRequest{scenario.spp, scenario.algebra,
                                  scenario.topology, scenario.seed};
  }
  return scenario_cache_key(scenario, api::compile(std::move(request)),
                            attempt_repair, repair, sim);
}

std::vector<std::unique_ptr<ScenarioSource>> quick_sources() {
  std::vector<std::unique_ptr<ScenarioSource>> sources;
  sources.push_back(gadget_source());
  sources.push_back(standard_policy_source());
  spp::RandomSppSweep random_sweep;
  random_sweep.count = 4;
  sources.push_back(random_spp_source(random_sweep));
  return sources;
}

// ------------------------------------------------------------------ seeds --

TEST(ScenarioSeed, DependsOnCampaignSeedIdAndOrdinal) {
  const std::uint64_t base = derive_scenario_seed(1, "gadgets/good", 0);
  EXPECT_EQ(base, derive_scenario_seed(1, "gadgets/good", 0));  // stable
  EXPECT_NE(base, derive_scenario_seed(2, "gadgets/good", 0));
  EXPECT_NE(base, derive_scenario_seed(1, "gadgets/bad", 0));
  EXPECT_NE(base, derive_scenario_seed(1, "gadgets/good", 1));
}

TEST(ScenarioSource, GeneratesUniqueIdsWithDerivedSeeds) {
  CampaignRunner runner;
  const std::vector<Scenario> scenarios = runner.generate(quick_sources());
  ASSERT_FALSE(scenarios.empty());
  std::set<std::string> ids;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_TRUE(ids.insert(scenarios[i].id).second)
        << "duplicate id " << scenarios[i].id;
    EXPECT_EQ(scenarios[i].seed,
              derive_scenario_seed(runner.options().seed, scenarios[i].id, i));
  }
}

// -------------------------------------------------------- canonical forms --

TEST(Cache, CanonicalSppIgnoresNameButNotContent) {
  spp::SppInstance renamed = spp::good_gadget();
  EXPECT_EQ(spp::canonical_spp(spp::good_gadget()),
            spp::canonical_spp(renamed));
  EXPECT_NE(spp::canonical_spp(spp::good_gadget()),
            spp::canonical_spp(spp::bad_gadget()));
}

TEST(Cache, ScenarioKeySeparatesKindsAndEmulationSeeds) {
  Scenario safety;
  safety.id = "x";
  safety.kind = ScenarioKind::safety;
  safety.seed = 7;
  safety.spp = std::make_shared<const spp::SppInstance>(spp::good_gadget());

  Scenario emulation = safety;
  emulation.kind = ScenarioKind::emulation;

  // Safety verdicts are seed-independent; emulations are not.
  Scenario safety_reseeded = safety;
  safety_reseeded.seed = 8;
  Scenario emulation_reseeded = emulation;
  emulation_reseeded.seed = 8;

  EXPECT_NE(key_of(safety), key_of(emulation));
  EXPECT_EQ(key_of(safety), key_of(safety_reseeded));
  EXPECT_NE(key_of(emulation), key_of(emulation_reseeded));
}

TEST(Cache, PayloadlessScenarioRejected) {
  Scenario empty;
  empty.id = "empty";
  EXPECT_THROW(key_of(empty), InvalidArgument);
}

TEST(Cache, ScenarioKeySpellsOutThePayloadCanonicalForm) {
  // Record file names are content_digest(key), so the key's bytes are
  // pinned literally: the kind, the seed where results depend on it, then
  // the payload's canonical form — the same text the compiled request's
  // fingerprint digests.
  Scenario safety;
  safety.id = "x";
  safety.kind = ScenarioKind::safety;
  safety.seed = 7;
  safety.spp = std::make_shared<const spp::SppInstance>(spp::good_gadget());
  EXPECT_EQ(key_of(safety), "safety|spp|" + spp::canonical_spp(*safety.spp));

  topology::AsHierarchyParams params;
  params.depth = 3;
  params.seed = 1;
  Scenario emulation;
  emulation.id = "e";
  emulation.kind = ScenarioKind::emulation;
  emulation.seed = 7;
  emulation.algebra = algebra::gao_rexford_guideline_a();
  emulation.topology = std::make_shared<const topology::Topology>(
      topology::generate_as_hierarchy(params, topology::LabelScheme::business));
  EXPECT_EQ(key_of(emulation),
            "emulation|seed=7|alg|" + emulation.algebra->name() + "|" +
                algebra::canonical_spec(emulation.algebra->symbolic()) +
                "|topo|" + topology::canonical_topology(*emulation.topology));

  Scenario simulation = safety;
  simulation.kind = ScenarioKind::simulation;
  EXPECT_EQ(key_of(simulation),
            "simulation|seed=7|spp|" + spp::canonical_spp(*safety.spp) +
                "|sim|scenario=steady;suppression=none;mrai=0;delay=" +
                std::to_string(sim::SimOptions().max_link_delay) +
                ";steps=" + std::to_string(sim::SimOptions().max_steps));
}

TEST(Cache, AnInvalidPrimaryStillKeysByItsPayload) {
  // A simulation under an unknown churn scenario compiles to an error the
  // service answers in-band; its key still names the instance it carries,
  // so distinct instances never collapse into one failed scenario.
  Scenario simulation;
  simulation.id = "s";
  simulation.kind = ScenarioKind::simulation;
  simulation.seed = 7;
  simulation.spp = std::make_shared<const spp::SppInstance>(spp::bad_gadget());
  sim::SimOptions bogus;
  bogus.scenario = "no-such-scenario";
  EXPECT_EQ(key_of(simulation, false, {}, bogus),
            "simulation|seed=7|spp|" + spp::canonical_spp(*simulation.spp) +
                "|sim|scenario=no-such-scenario;suppression=none;mrai=" +
                std::to_string(bogus.mrai_ticks) + ";delay=" +
                std::to_string(bogus.max_link_delay) +
                ";steps=" + std::to_string(bogus.max_steps));
}

// -------------------------------------------------------------- random spp --

TEST(RandomSpp, DeterministicValidInstances) {
  const spp::RandomSppSweep sweep;
  const spp::SppInstance one = spp::random_spp_instance("r", 123, sweep);
  const spp::SppInstance two = spp::random_spp_instance("r", 123, sweep);
  EXPECT_EQ(spp::canonical_spp(one), spp::canonical_spp(two));
  EXPECT_NE(spp::canonical_spp(one),
            spp::canonical_spp(spp::random_spp_instance("r", 124, sweep)));
  EXPECT_GT(one.permitted_path_count(), 0u);
  // Every generated path passed SppInstance validation (edges declared,
  // simple, destination-terminated) or add_permitted_path would have
  // thrown during construction.
  for (const std::string& node : one.nodes()) {
    EXPECT_LE(one.permitted(node).size(),
              static_cast<std::size_t>(sweep.paths_per_node));
  }
}

// ----------------------------------------------------------- determinism --

TEST(CampaignRunner, ReportBytesIdenticalForAnyThreadCount) {
  // The acceptance property: same campaign seed => byte-identical default
  // JSON, whether solved serially or by a contended worker pool. Includes
  // emulation scenarios so their seed-dependence is covered too.
  const auto run_with_threads = [](int threads) {
    GadgetSweep sweep;
    sweep.include_emulations = true;
    std::vector<std::unique_ptr<ScenarioSource>> sources;
    sources.push_back(gadget_source(std::move(sweep)));
    spp::RandomSppSweep random_sweep;
    random_sweep.count = 4;
    sources.push_back(random_spp_source(random_sweep));
    CampaignOptions options;
    options.seed = 7;
    options.threads = threads;
    CampaignRunner runner(options);
    return to_json(runner.run(sources));
  };
  const std::string serial = run_with_threads(1);
  EXPECT_EQ(serial, run_with_threads(2));
  EXPECT_EQ(serial, run_with_threads(5));
}

TEST(CampaignRunner, DifferentCampaignSeedsChangeRandomScenarios) {
  const auto run_with_seed = [](std::uint64_t seed) {
    std::vector<std::unique_ptr<ScenarioSource>> sources;
    spp::RandomSppSweep sweep;
    sweep.count = 4;
    sources.push_back(random_spp_source(sweep));
    CampaignOptions options;
    options.seed = seed;
    CampaignRunner runner(options);
    return to_json(runner.run(sources));
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

// ------------------------------------------------------ dedup and caching --

TEST(CampaignRunner, DeduplicatesIdenticalContentWithinARun) {
  // The same gadget reached twice under different ids must be solved once,
  // with both results sharing the representative's outcome object.
  std::vector<Scenario> scenarios;
  for (int i = 0; i < 3; ++i) {
    Scenario scenario;
    scenario.id = "dup/" + std::to_string(i);
    scenario.source = "dup";
    scenario.kind = ScenarioKind::safety;
    scenario.seed = derive_scenario_seed(1, scenario.id, i);
    scenario.spp =
        std::make_shared<const spp::SppInstance>(spp::bad_gadget());
    scenarios.push_back(std::move(scenario));
  }
  CampaignRunner runner;
  const CampaignReport report = runner.run_scenarios(std::move(scenarios));
  EXPECT_EQ(report.solved_count, 1u);
  EXPECT_EQ(report.deduplicated_count, 2u);
  EXPECT_EQ(report.cache_hit_count, 0u);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_FALSE(report.results[0].deduplicated);
  EXPECT_TRUE(report.results[1].deduplicated);
  EXPECT_TRUE(report.results[2].deduplicated);
  EXPECT_EQ(report.results[0].outcome.get(), report.results[1].outcome.get());
  EXPECT_EQ(report.results[0].outcome.get(), report.results[2].outcome.get());
  EXPECT_EQ(report.results[0].content_id, report.results[2].content_id);
  ASSERT_TRUE(report.results[2].outcome->safety.has_value());
  EXPECT_EQ(report.results[2].outcome->safety->verdict,
            SafetyVerdict::not_provably_safe);
}

TEST(CampaignRunner, SecondRunServedEntirelyFromCache) {
  CampaignRunner runner;
  const CampaignReport first = runner.run(quick_sources());
  EXPECT_GT(first.solved_count, 0u);
  EXPECT_EQ(first.cache_hit_count, 0u);

  const CampaignReport second = runner.run(quick_sources());
  EXPECT_EQ(second.solved_count, 0u);
  EXPECT_EQ(second.cache_hit_count,
            second.results.size() - second.deduplicated_count);
  // Cache provenance is timings-gated metadata, so a warm run renders the
  // exact same deterministic JSON as the cold run that filled the cache...
  EXPECT_EQ(to_json(first), to_json(second));
  JsonOptions timed;
  timed.include_timings = true;
  EXPECT_NE(to_json(second, timed).find("\"cache_hit\": true"),
            std::string::npos);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].content_id, second.results[i].content_id);
    if (!first.results[i].deduplicated) {
      // ...and the outcome objects themselves are shared, not re-solved.
      EXPECT_EQ(first.results[i].outcome.get(),
                second.results[i].outcome.get());
    }
  }
}

TEST(Cache, OutcomesRoundTripThroughSerialization) {
  // Every outcome shape the campaign produces (safety with cores,
  // emulations, simulations, repair summaries, errors) must survive the
  // disk format byte-for-byte at the JSON level.
  GadgetSweep sweep;
  sweep.include_emulations = true;
  sweep.include_simulations = true;
  std::vector<std::unique_ptr<ScenarioSource>> sources;
  sources.push_back(gadget_source(std::move(sweep)));
  sources.push_back(standard_policy_source());
  CampaignOptions options;
  options.attempt_repair = true;
  CampaignRunner runner(options);
  CampaignReport report = runner.run(sources);
  JsonOptions timed;
  timed.include_timings = true;
  const std::string plain_before = to_json(report);
  const std::string timed_before = to_json(report, timed);

  std::size_t round_tripped = 0;
  for (ScenarioResult& result : report.results) {
    if (result.outcome == nullptr) continue;
    // A v7 record is one JSON object holding only what the report renders:
    // no models, narratives, bandwidth series or fixed points. The same
    // body under the v6 header (the line-record format) is refused, not
    // misread.
    const std::string record = serialize_outcome(*result.outcome);
    ASSERT_EQ(record.rfind("fsr-outcome v7\n", 0), 0u) << result.id;
    const std::string body = record.substr(record.find('\n') + 1);
    EXPECT_NO_THROW(api::json::parse(body)) << result.id;
    for (const char* dropped : {"\"model\":", "\"narrative\":",
                                "\"series\":", "\"fixed_point\":"}) {
      EXPECT_EQ(body.find(dropped), std::string::npos)
          << result.id << " " << dropped;
    }
    EXPECT_EQ(deserialize_outcome("fsr-outcome v6\n" + body), nullptr)
        << result.id;
    const auto restored = deserialize_outcome(record);
    ASSERT_NE(restored, nullptr) << result.id;
    result.outcome = restored;
    ++round_tripped;
  }
  EXPECT_GT(round_tripped, 0u);

  // Deterministic AND timing renderings agree: the format loses nothing
  // (wall-clock fields included, so warm table renderings stay faithful).
  EXPECT_EQ(plain_before, to_json(report));
  EXPECT_EQ(timed_before, to_json(report, timed));
}

TEST(Cache, MalformedRecordsAreRejectedNotFatal) {
  EXPECT_EQ(deserialize_outcome(""), nullptr);
  EXPECT_EQ(deserialize_outcome("not a record"), nullptr);
  EXPECT_EQ(deserialize_outcome("fsr-outcome v99\nkind safety\n"), nullptr);
  // A truncated but well-headed record is rejected as a whole.
  const ScenarioOutcome outcome;
  const std::string full = serialize_outcome(outcome);
  EXPECT_NE(deserialize_outcome(full), nullptr);
  EXPECT_EQ(deserialize_outcome(full.substr(0, full.size() / 2)), nullptr);
  // So is a truncated JSON body behind a good header, and nesting past the
  // parser's depth bound is an error, not a stack overflow.
  const std::string header = "fsr-outcome v7\n";
  const std::string safe_record =
      header +
      R"({"key": "k", "verdict": "safe", "checks": [{"algebra": "a",)"
      R"( "mode": "strict", "holds": true, "preference_constraints": 3,)"
      R"( "monotonicity_constraints": 2}], "wall_ms": 1.5})";
  ASSERT_NE(deserialize_outcome(safe_record), nullptr);
  EXPECT_EQ(deserialize_outcome(safe_record.substr(0, safe_record.size() - 9)),
            nullptr);
  EXPECT_EQ(deserialize_outcome(header + std::string(800000, '[')), nullptr);
  // A mistyped field (a count given as a string) fails the record, and so
  // does a missing one.
  std::string mistyped = safe_record;
  mistyped.replace(mistyped.find("3,"), 1, "\"3\"");
  EXPECT_EQ(deserialize_outcome(mistyped), nullptr);
  std::string unverdicted = safe_record;
  unverdicted.erase(unverdicted.find("\"verdict\""), 19);
  EXPECT_EQ(deserialize_outcome(unverdicted), nullptr);
}

TEST(Cache, DiskBackedCachePersistsAcrossRunners) {
  const std::string dir =
      testing::TempDir() + "fsr_cache_persist_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  CampaignOptions options;
  options.cache_dir = dir;
  std::string cold_json;
  {
    CampaignRunner cold(options);
    const CampaignReport report = cold.run(quick_sources());
    EXPECT_GT(report.solved_count, 0u);
    cold_json = to_json(report);
  }
  EXPECT_FALSE(std::filesystem::is_empty(dir));

  // A fresh process (modelled by a fresh runner) reloads every outcome:
  // nothing re-solves and the deterministic JSON is byte-identical.
  CampaignRunner warm(options);
  const CampaignReport report = warm.run(quick_sources());
  EXPECT_EQ(report.solved_count, 0u);
  EXPECT_GT(report.cache_hit_count, 0u);
  EXPECT_EQ(cold_json, to_json(report));
  std::filesystem::remove_all(dir);
}

TEST(Cache, CorruptedDiskEntriesDegradeToMisses) {
  const std::string dir =
      testing::TempDir() + "fsr_cache_corrupt_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  CampaignOptions options;
  options.cache_dir = dir;
  {
    CampaignRunner cold(options);
    (void)cold.run(quick_sources());
  }
  // Vandalise every stored record; the reload must shrug, not crash. A
  // record relabelled with an older format version is a miss too, even
  // with a body that would decode. Each warm run re-persists fresh records
  // for the next vandalism.
  const std::vector<std::function<std::string(const std::string&)>>
      vandalisms = {
          [](const std::string&) { return "fsr-outcome v1\ngarbage"; },
          [](const std::string& record) {
            return "fsr-outcome v6" + record.substr(record.find('\n'));
          },
      };
  for (const auto& vandalise : vandalisms) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      const std::string record((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
      in.close();
      std::ofstream out(entry.path(), std::ios::trunc | std::ios::binary);
      out << vandalise(record);
    }
    CampaignRunner warm(options);
    const CampaignReport report = warm.run(quick_sources());
    EXPECT_EQ(report.cache_hit_count, 0u);
    EXPECT_GT(report.solved_count, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(CampaignRunner, CacheCanBeDisabled) {
  CampaignOptions options;
  options.use_cache = false;
  CampaignRunner runner(options);
  (void)runner.run(quick_sources());
  const CampaignReport second = runner.run(quick_sources());
  EXPECT_EQ(second.cache_hit_count, 0u);
  EXPECT_GT(second.solved_count, 0u);
  EXPECT_EQ(runner.cache().size(), 0u);
}

// ----------------------------------------------------------------- repair --

TEST(CampaignRunner, RepairReportBytesIdenticalForAnyThreadCount) {
  const auto run_with_threads = [](int threads) {
    std::vector<std::unique_ptr<ScenarioSource>> sources;
    RepairTargetSweep sweep;
    sweep.bad_chain_lengths = {2};
    sweep.random_count = 3;
    sources.push_back(repair_target_source(sweep));
    CampaignOptions options;
    options.seed = 11;
    options.threads = threads;
    options.attempt_repair = true;
    CampaignRunner runner(options);
    return to_json(runner.run(sources));
  };
  const std::string serial = run_with_threads(1);
  EXPECT_EQ(serial, run_with_threads(4));
  EXPECT_NE(serial.find("\"repair_summary\""), std::string::npos);
  EXPECT_NE(serial.find("\"repair\": {\"solver_repaired\": true"),
            std::string::npos);
}

TEST(CampaignRunner, RepairAggregatesAndHistogram) {
  std::vector<std::unique_ptr<ScenarioSource>> sources;
  RepairTargetSweep sweep;
  sweep.bad_chain_lengths = {2};
  sweep.random_count = 0;
  sources.push_back(repair_target_source(sweep));
  CampaignOptions options;
  options.attempt_repair = true;
  CampaignRunner runner(options);
  const CampaignReport report = runner.run(sources);

  const SourceSummary totals = report.totals();
  // bad, disagree, ibgp-figure3, bad-chain-2: all unsafe, all repairable.
  EXPECT_EQ(totals.repairs_attempted, 4u);
  EXPECT_EQ(totals.repaired, 4u);
  EXPECT_EQ(totals.repair_verified, 4u);
  const auto histogram = report.repair_edit_size_histogram();
  ASSERT_EQ(histogram.size(), 2u);  // every best fix is a single edit
  EXPECT_EQ(histogram[1], 4u);

  const std::string table = render_table(report);
  EXPECT_NE(table.find("repaired/attempted"), std::string::npos);
  EXPECT_NE(table.find("repair edit-size histogram"), std::string::npos);
}

TEST(CampaignRunner, RepairOffLeavesReportUnchanged) {
  std::vector<std::unique_ptr<ScenarioSource>> sources;
  sources.push_back(gadget_source());
  CampaignRunner runner;
  const CampaignReport report = runner.run(sources);
  EXPECT_EQ(report.totals().repairs_attempted, 0u);
  const std::string json = to_json(report);
  EXPECT_EQ(json.find("repair"), std::string::npos);
  EXPECT_TRUE(report.repair_edit_size_histogram().empty());
}

TEST(Cache, RepairModeSeparatesKeys) {
  Scenario safety;
  safety.id = "x";
  safety.kind = ScenarioKind::safety;
  safety.seed = 7;
  safety.spp = std::make_shared<const spp::SppInstance>(spp::bad_gadget());
  // Outcomes with repair data must not alias plain safety outcomes, but
  // repair results are content-determined (repair draws no randomness),
  // so the repair key stays seed-free and duplicates still dedup.
  EXPECT_NE(key_of(safety, true), key_of(safety, false));
  EXPECT_EQ(key_of(safety, false), key_of(safety));
  Scenario reseeded = safety;
  reseeded.seed = 8;
  EXPECT_EQ(key_of(safety, true), key_of(reseeded, true));
  EXPECT_EQ(key_of(safety, false), key_of(reseeded, false));

  // Algebra scenarios are not repair-eligible; their key is mode-invariant.
  Scenario algebra_scenario;
  algebra_scenario.id = "alg";
  algebra_scenario.kind = ScenarioKind::safety;
  algebra_scenario.algebra = algebra::gao_rexford_guideline_a();
  EXPECT_EQ(key_of(algebra_scenario, true), key_of(algebra_scenario, false));
}

TEST(Cache, SimConfigSeparatesKeys) {
  // The PR-9 regression: simulation outcomes depend on the whole sim
  // configuration, not just the per-scenario seed, so every axis that can
  // change the run must land in the key — records written under one config
  // must never satisfy a lookup under another.
  Scenario simulation;
  simulation.id = "s";
  simulation.kind = ScenarioKind::simulation;
  simulation.seed = 7;
  simulation.spp =
      std::make_shared<const spp::SppInstance>(spp::bad_gadget());
  const sim::SimOptions base;
  const std::string base_key = key_of(simulation, false, {}, base);

  sim::SimOptions churn = base;
  churn.scenario = "link-flap";
  EXPECT_NE(key_of(simulation, false, {}, churn), base_key);
  sim::SimOptions suppressed = base;
  suppressed.suppression = "split-horizon";
  EXPECT_NE(key_of(simulation, false, {}, suppressed), base_key);
  sim::SimOptions mrai = base;
  mrai.mrai_ticks = 5;
  EXPECT_NE(key_of(simulation, false, {}, mrai), base_key);
  sim::SimOptions slower_links = base;
  slower_links.max_link_delay = 9;
  EXPECT_NE(key_of(simulation, false, {}, slower_links), base_key);
  sim::SimOptions tighter_budget = base;
  tighter_budget.max_steps = 64;
  EXPECT_NE(key_of(simulation, false, {}, tighter_budget), base_key);

  // The detector axes are deliberately NOT keyed: the differential suite
  // proves both detectors byte-identical (and the hash mask is verified
  // away), so their records are interchangeable by construction.
  sim::SimOptions canonical = base;
  canonical.detector = "canonical";
  EXPECT_EQ(key_of(simulation, false, {}, canonical), base_key);
  sim::SimOptions masked = base;
  masked.detector_hash_mask = 0;
  EXPECT_EQ(key_of(simulation, false, {}, masked), base_key);

  // The per-run seed is already in the base key, not the sim marker.
  Scenario reseeded = simulation;
  reseeded.seed = 8;
  EXPECT_NE(key_of(reseeded, false, {}, base), base_key);

  // Non-simulation scenarios ignore the sim config entirely.
  Scenario safety = simulation;
  safety.kind = ScenarioKind::safety;
  EXPECT_EQ(key_of(safety, false, {}, churn), key_of(safety));
}

TEST(CampaignRunner, WarmCacheNeverServesADifferentSimConfig) {
  // Disk-backed cross-config regression for the same bug: a cache filled
  // under one sim configuration must be useless to a campaign running
  // another — and fully warm again for the configuration that wrote it.
  const std::string dir = testing::TempDir() + "fsr_cache_simcfg_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  GadgetSweep sweep;
  sweep.include_simulations = true;
  const auto sim_sources = [&sweep] {
    std::vector<std::unique_ptr<ScenarioSource>> sources;
    sources.push_back(gadget_source(sweep));
    return sources;
  };

  CampaignOptions cold_options;
  cold_options.cache_dir = dir;
  {
    CampaignRunner cold(cold_options);
    const CampaignReport report = cold.run(sim_sources());
    EXPECT_GT(report.totals().sim_runs, 0u);
  }

  CampaignOptions flap_options = cold_options;
  flap_options.sim.scenario = "link-flap";
  flap_options.sim.suppression = "poisoned-reverse";
  CampaignRunner warm_other(flap_options);
  const CampaignReport other = warm_other.run(sim_sources());
  std::size_t sims = 0;
  for (const ScenarioResult& result : other.results) {
    if (result.kind != ScenarioKind::simulation) continue;
    ++sims;
    EXPECT_FALSE(result.cache_hit) << result.id;
    ASSERT_TRUE(result.outcome->sim.has_value()) << result.id;
    // The outcome really ran under the new config, not the cached one.
    EXPECT_EQ(result.outcome->sim->scenario, "link-flap") << result.id;
    EXPECT_EQ(result.outcome->sim->suppression, "poisoned-reverse")
        << result.id;
  }
  EXPECT_GT(sims, 0u);

  // Same config as the cold run => every simulation is a warm hit again.
  CampaignRunner warm_same(cold_options);
  const CampaignReport same = warm_same.run(sim_sources());
  for (const ScenarioResult& result : same.results) {
    if (result.kind != ScenarioKind::simulation || result.deduplicated) {
      continue;
    }
    EXPECT_TRUE(result.cache_hit) << result.id;
  }
  std::filesystem::remove_all(dir);
}

TEST(ScenarioSource, SppFromTopologyExtractsSimulatableInstances) {
  // The campaign's --simulate bridge for annotated topologies: the
  // extracted instance must give the destination's neighbours real routes
  // (otherwise nothing ever originates and every simulation is a trivial
  // zero-message convergence) and fold only policy-permitted paths.
  topology::AsHierarchyParams params;
  params.depth = 5;
  params.seed = 1;
  const topology::Topology topo =
      topology::generate_as_hierarchy(params, topology::LabelScheme::business);
  const spp::SppInstance instance = spp_from_topology(
      "x", topo, *algebra::gao_rexford_guideline_a(), params.depth + 4, 16, 3);
  EXPECT_EQ(instance.destination(), topo.destination);
  EXPECT_GT(instance.permitted_path_count(), 0u);
  bool destination_reachable = false;
  for (const auto& [u, v] : instance.edges()) {
    const std::string& neighbour = u == topo.destination   ? v
                                   : v == topo.destination ? u
                                                           : std::string();
    if (neighbour.empty()) continue;
    if (!instance.permitted(neighbour).empty()) destination_reachable = true;
  }
  EXPECT_TRUE(destination_reachable);

  // And the simulator actually has something to do on it.
  sim::SimOptions options;
  options.seed = 3;
  const sim::SimResult run = sim::simulate(instance, options);
  EXPECT_TRUE(run.converged || run.oscillating);
  EXPECT_GT(run.messages, 0u);
}

TEST(ScenarioSource, RepairTargetsSourceIsRegistered) {
  const auto& names = builtin_source_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "repair-targets"),
            names.end());
  const auto source = make_builtin_source("repair-targets", false);
  const std::vector<Scenario> scenarios = source->generate(1, 0);
  EXPECT_GE(scenarios.size(), 7u);
  for (const Scenario& scenario : scenarios) {
    EXPECT_EQ(scenario.kind, ScenarioKind::safety);
    EXPECT_NE(scenario.spp, nullptr);
  }
}

// ------------------------------------------------------------- robustness --

TEST(CampaignRunner, FailingScenarioRecordsErrorWithoutAborting) {
  // An SPP instance with no permitted paths fails translation; the
  // campaign must record the error, keep going, and keep the failure out
  // of the cache.
  std::vector<Scenario> scenarios;
  Scenario broken;
  broken.id = "broken/empty";
  broken.source = "broken";
  broken.kind = ScenarioKind::safety;
  broken.spp = std::make_shared<const spp::SppInstance>(
      spp::SppInstance("pathless"));
  scenarios.push_back(broken);
  Scenario good;
  good.id = "ok/good";
  good.source = "ok";
  good.kind = ScenarioKind::safety;
  good.spp = std::make_shared<const spp::SppInstance>(spp::good_gadget());
  scenarios.push_back(good);

  CampaignRunner runner;
  const CampaignReport report = runner.run_scenarios(std::move(scenarios));
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_FALSE(report.results[0].outcome->error.empty());
  EXPECT_TRUE(report.results[1].outcome->error.empty());
  EXPECT_EQ(runner.cache().size(), 1u);  // only the good outcome cached
  EXPECT_NE(to_json(report).find("\"verdict\": \"error\""), std::string::npos);
}

TEST(CampaignRunner, EachScenarioCompilesOnceAndEachSafetySolveTranslatesOnce) {
  // Compile once per request: every scenario's primary compiles once on
  // the calling thread (duplicates included — the key needs it), every
  // repair follow-up once on its worker. Only solved SPP safety scenarios
  // and repairs translate, once each.
  std::vector<Scenario> scenarios;
  std::vector<bool> spp_safety;
  const auto add = [&](const std::string& id, ScenarioKind kind,
                       const std::string& gadget) {
    Scenario scenario;
    scenario.id = id;
    scenario.source = "counts";
    scenario.kind = kind;
    scenario.seed = scenarios.size() + 1;
    scenario.spp =
        std::make_shared<const spp::SppInstance>(spp::gadget_by_name(gadget));
    scenarios.push_back(std::move(scenario));
    spp_safety.push_back(kind == ScenarioKind::safety);
  };
  for (const char* name : {"good", "bad", "disagree", "ibgp-figure3"}) {
    add(std::string("safety/") + name, ScenarioKind::safety, name);
  }
  add("safety/bad-again", ScenarioKind::safety, "bad");  // deduplicated
  add("simulation/bad", ScenarioKind::simulation, "bad");
  Scenario algebra_scenario;
  algebra_scenario.id = "safety/guideline-a";
  algebra_scenario.source = "counts";
  algebra_scenario.kind = ScenarioKind::safety;
  algebra_scenario.algebra = algebra::gao_rexford_guideline_a();
  scenarios.push_back(algebra_scenario);
  spp_safety.push_back(false);

  CampaignOptions options;
  options.threads = 2;
  options.attempt_repair = true;
  CampaignRunner runner(options);
  obs::Counter& compilations = obs::registry().counter("api.compilations");
  obs::Counter& translations = obs::registry().counter("spp.translations");
  const std::uint64_t compilations_before = compilations.value();
  const std::uint64_t translations_before = translations.value();
  const CampaignReport report = runner.run_scenarios(scenarios);

  std::size_t repairs = 0;
  std::size_t solved_spp_safety = 0;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const ScenarioResult& result = report.results[i];
    if (result.deduplicated || result.cache_hit) continue;
    if (spp_safety[i]) ++solved_spp_safety;
    if (result.outcome->repair.has_value()) ++repairs;
  }
  EXPECT_EQ(report.deduplicated_count, 1u);
  EXPECT_EQ(solved_spp_safety, 4u);
  EXPECT_EQ(repairs, 3u);  // bad, disagree, ibgp-figure3
  EXPECT_EQ(compilations.value() - compilations_before,
            scenarios.size() + repairs);
  EXPECT_EQ(translations.value() - translations_before,
            solved_spp_safety + repairs);
}

TEST(CampaignRunner, RejectsMalformedScenarioShapes) {
  // Shape errors are programming mistakes: they fail fast in the
  // sequential scheduling phase, never inside a worker.
  const auto run_one = [](Scenario scenario) {
    scenario.id = "shape";
    std::vector<Scenario> scenarios;
    scenarios.push_back(std::move(scenario));
    CampaignRunner runner;
    (void)runner.run_scenarios(std::move(scenarios));
  };
  Scenario emulation_without_topology;
  emulation_without_topology.kind = ScenarioKind::emulation;
  emulation_without_topology.algebra = algebra::gao_rexford_guideline_a();
  EXPECT_THROW(run_one(emulation_without_topology), InvalidArgument);

  Scenario safety_with_both;
  safety_with_both.kind = ScenarioKind::safety;
  safety_with_both.algebra = algebra::gao_rexford_guideline_a();
  safety_with_both.spp =
      std::make_shared<const spp::SppInstance>(spp::good_gadget());
  EXPECT_THROW(run_one(safety_with_both), InvalidArgument);
}

TEST(CampaignRunner, AMalformedScenarioBehindSubmittedWorkStillThrows) {
  // Scheduling streams: the unsafe gadgets ahead of the malformed scenario
  // are already submitted (and their repair follow-ups leave from worker
  // callbacks) when validation throws. The run must wait for that work
  // and surface the error, not crash or hang.
  std::vector<Scenario> scenarios;
  for (const char* name : {"bad", "disagree", "ibgp-figure3"}) {
    Scenario unsafe;
    unsafe.id = std::string("unsafe/") + name;
    unsafe.source = "unsafe";
    unsafe.kind = ScenarioKind::safety;
    unsafe.spp = std::make_shared<const spp::SppInstance>(
        spp::gadget_by_name(name));
    scenarios.push_back(std::move(unsafe));
  }
  Scenario broken;
  broken.id = "broken/emulation-without-topology";
  broken.kind = ScenarioKind::emulation;
  broken.algebra = algebra::gao_rexford_guideline_a();
  scenarios.push_back(std::move(broken));

  CampaignOptions options;
  options.threads = 2;
  options.attempt_repair = true;
  CampaignRunner runner(options);
  EXPECT_THROW((void)runner.run_scenarios(std::move(scenarios)),
               InvalidArgument);
  EXPECT_EQ(runner.cache().size(), 0u);  // nothing assembled, nothing cached
}

TEST(CampaignRunner, RejectsNonPositiveThreadCount) {
  CampaignOptions options;
  options.threads = 0;
  EXPECT_THROW(CampaignRunner{options}, InvalidArgument);
}

// -------------------------------------------------------------- reporting --

TEST(CampaignReport, AggregatesVerdictsPerSource) {
  CampaignRunner runner;
  const CampaignReport report = runner.run(quick_sources());
  const auto per_source = report.per_source();
  ASSERT_EQ(per_source.size(), 3u);
  EXPECT_EQ(per_source[0].first, "gadgets");
  // good, fixed figure-3 and the chains are safe; bad, disagree and the
  // broken figure-3 are not provably safe.
  EXPECT_EQ(per_source[0].second.safe, 5u);
  EXPECT_EQ(per_source[0].second.not_provably_safe, 3u);
  const SourceSummary totals = report.totals();
  EXPECT_EQ(totals.scenarios, report.results.size());
  EXPECT_EQ(totals.safe + totals.not_provably_safe + totals.converged +
                totals.diverged,
            report.results.size());
  EXPECT_FALSE(report.core_frequencies().empty());
}

TEST(CampaignReport, TimingsAreOptInAndTableRenders) {
  CampaignRunner runner;
  const CampaignReport report = runner.run(quick_sources());
  const std::string plain = to_json(report);
  EXPECT_EQ(plain.find("wall_ms"), std::string::npos);
  EXPECT_EQ(plain.find("timings"), std::string::npos);
  JsonOptions options;
  options.include_timings = true;
  const std::string timed = to_json(report, options);
  EXPECT_NE(timed.find("\"timings\""), std::string::npos);
  EXPECT_NE(timed.find("wall_ms"), std::string::npos);

  const std::string table = render_table(report);
  EXPECT_NE(table.find("FSR campaign report"), std::string::npos);
  EXPECT_NE(table.find("gadgets"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

// -------------------------------------------------- size-capped LRU sweep --

namespace {

/// An outcome whose serialized record is at least `bytes` long (padding
/// rides in the error text, which the record keeps verbatim).
std::shared_ptr<const ScenarioOutcome> padded_outcome(std::size_t bytes) {
  auto outcome = std::make_shared<ScenarioOutcome>();
  outcome->error = std::string(bytes, 'x');
  return outcome;
}

std::string eviction_dir(const char* tag) {
  const std::string dir = testing::TempDir() + "fsr_cache_evict_" + tag +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::size_t outcome_files(const std::string& dir) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".outcome") ++count;
  }
  return count;
}

}  // namespace

TEST(Cache, SizeCapEvictsOldestRecordsOnOverflow) {
  const std::string dir = eviction_dir("cap");
  const std::uint64_t cap = 4000;
  {
    ResultCache cache(dir, cap);
    for (int i = 0; i < 8; ++i) {
      cache.insert("key-" + std::to_string(i), padded_outcome(1000));
    }
    // Every insert swept: the directory never exceeds the cap, the oldest
    // records are the ones that went, and the in-memory entries all
    // survive (eviction sheds disk history, not this run's answers).
    EXPECT_LE(cache.disk_bytes(), cap);
    EXPECT_GT(cache.evicted_files(), 0u);
    EXPECT_EQ(cache.size(), 8u);
    for (int i = 0; i < 8; ++i) {
      EXPECT_NE(cache.find("key-" + std::to_string(i)), nullptr) << i;
    }
  }
  EXPECT_LT(outcome_files(dir), 8u);

  // A fresh cache reloads only the surviving (most recent) records; the
  // newest insertion is always among them.
  ResultCache reloaded(dir, cap);
  EXPECT_EQ(reloaded.size(), outcome_files(dir));
  EXPECT_NE(reloaded.find("key-7"), nullptr);
  EXPECT_EQ(reloaded.find("key-0"), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(Cache, FindHitsRefreshRecencySoHotRecordsSurviveTheSweep) {
  const std::string dir = eviction_dir("touch");
  // Measure one record's on-disk size so the cap holds exactly two.
  std::uint64_t record_bytes = 0;
  {
    const std::string probe_dir = eviction_dir("touch_probe");
    ResultCache probe(probe_dir);
    probe.insert("probe", padded_outcome(1000));
    record_bytes = probe.disk_bytes();
    std::filesystem::remove_all(probe_dir);
  }
  ASSERT_GT(record_bytes, 0u);
  ResultCache cache(dir, 2 * record_bytes + record_bytes / 2);
  cache.insert("hot", padded_outcome(1000));
  cache.insert("cold", padded_outcome(1000));
  // Touch the older record: it becomes the most recently ACCESSED even
  // though "cold" was written later.
  EXPECT_NE(cache.find("hot"), nullptr);
  // Overflow: the sweep must shed "cold" (oldest access), not "hot".
  cache.insert("new", padded_outcome(1000));
  ResultCache reloaded(dir);
  EXPECT_NE(reloaded.find("hot"), nullptr);
  EXPECT_NE(reloaded.find("new"), nullptr);
  EXPECT_EQ(reloaded.find("cold"), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(Cache, StartupLoadAppliesTheCapToAnOverfullDirectory) {
  const std::string dir = eviction_dir("startup");
  {
    ResultCache unbounded(dir);  // fill without a cap
    for (int i = 0; i < 6; ++i) {
      unbounded.insert("key-" + std::to_string(i), padded_outcome(1000));
    }
  }
  EXPECT_EQ(outcome_files(dir), 6u);
  ResultCache capped(dir, 3000);
  EXPECT_LE(capped.disk_bytes(), 3000u);
  EXPECT_GT(capped.evicted_files(), 0u);
  EXPECT_LT(outcome_files(dir), 6u);
  std::filesystem::remove_all(dir);
}

TEST(Cache, SingleOversizedRecordSurvivesAlone) {
  const std::string dir = eviction_dir("oversize");
  ResultCache cache(dir, 100);
  cache.insert("big", padded_outcome(5000));
  // Deleting the only record would leave a cache that serves nothing.
  EXPECT_EQ(outcome_files(dir), 1u);
  EXPECT_EQ(cache.evicted_files(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignRunner, CacheMaxBytesFlowsThroughCampaignOptions) {
  const std::string dir = eviction_dir("runner");
  CampaignOptions options;
  options.cache_dir = dir;
  options.cache_max_bytes = 8000;
  CampaignRunner runner(options);
  const CampaignReport report = runner.run(quick_sources());
  EXPECT_GT(report.solved_count, 0u);
  EXPECT_LE(runner.cache().disk_bytes(), options.cache_max_bytes);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fsr::campaign
