// Scenario model for the campaign engine.
//
// A campaign is a batch of independent analysis/emulation jobs ("scenarios")
// drawn from generators (see scenario_source.h) and executed by the
// CampaignRunner over a worker pool. A scenario is self-contained: it names
// its work (safety analysis of an algebra or SPP instance, or an emulation
// run) and carries a per-scenario seed derived deterministically from the
// campaign seed, so results are reproducible regardless of worker count or
// scheduling order.
#ifndef FSR_CAMPAIGN_SCENARIO_H
#define FSR_CAMPAIGN_SCENARIO_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "algebra/algebra.h"
#include "fsr/emulation.h"
#include "fsr/safety_analyzer.h"
#include "repair/repair_engine.h"
#include "sim/simulator.h"
#include "spp/spp.h"
#include "topology/topology.h"

namespace fsr::campaign {

enum class ScenarioKind { safety, emulation, simulation };

const char* to_string(ScenarioKind kind) noexcept;

/// One unit of campaign work. Exactly one of the following shapes:
///   * safety     + algebra             — analyze the algebra directly;
///   * safety     + spp                 — translate (Section III-B), analyze;
///   * emulation  + spp                 — emulate_spp under `seed`;
///   * emulation  + algebra + topology  — emulate_gpv under `seed`;
///   * simulation + spp                 — event-driven SPVP run under `seed`.
/// Payloads are shared immutable objects, so scenarios are cheap to copy
/// and safe to hand to worker threads.
struct Scenario {
  std::string id;      // unique within the campaign, e.g. "gadgets/bad"
  std::string source;  // name of the generating ScenarioSource
  ScenarioKind kind = ScenarioKind::safety;
  std::uint64_t seed = 0;  // per-scenario seed (see derive_scenario_seed)

  algebra::AlgebraPtr algebra;
  std::shared_ptr<const spp::SppInstance> spp;
  std::shared_ptr<const topology::Topology> topology;
};

/// Everything a worker produces for one scenario. Wall-clock time is the
/// only non-deterministic field; renderers exclude it unless timings are
/// requested explicitly.
struct ScenarioOutcome {
  std::optional<SafetyReport> safety;
  std::optional<EmulationResult> emulation;
  /// Simulation scenarios: the event-driven run's digest — message count,
  /// activation steps, convergence tick, oscillation verdict. Fully
  /// deterministic in (content, seed), so it participates in the
  /// byte-stable JSON and the disk ResultCache like every other payload.
  std::optional<sim::SimResult> sim;
  /// Present when the campaign ran with attempt_repair and this scenario
  /// was an unsafe SPP safety scenario: the repair engine's digest. All
  /// fields are a pure function of the instance, so repair data
  /// participates in the byte-stable JSON and duplicates still share one
  /// outcome.
  std::optional<repair::RepairSummary> repair;
  /// Non-empty when the scenario raised instead of completing; a failed
  /// scenario never aborts the campaign (or pollutes the cache).
  std::string error;
  double wall_ms = 0.0;
};

/// Throws fsr::InvalidArgument unless the scenario matches exactly one of
/// the four shapes documented on Scenario (so a malformed scenario fails
/// fast in the runner's scheduling phase instead of crashing a worker).
void validate_scenario(const Scenario& scenario);

/// Derives the seed of scenario `ordinal` named `id` within a campaign:
/// a splitmix64 finalizer over the campaign seed and an FNV-1a hash of the
/// id. Depends only on (campaign_seed, id, ordinal) — never on thread
/// count, scheduling, or other scenarios.
std::uint64_t derive_scenario_seed(std::uint64_t campaign_seed,
                                   const std::string& id,
                                   std::uint64_t ordinal);

}  // namespace fsr::campaign

#endif  // FSR_CAMPAIGN_SCENARIO_H
