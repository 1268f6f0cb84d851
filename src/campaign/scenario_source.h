// Scenario generators: the campaign engine's supply side.
//
// A ScenarioSource deterministically expands into a list of scenarios
// given the campaign seed. Built-in sources cover the toolkit's whole
// workload spectrum:
//
//   * gadgets     — the full spp::gadgets library (safety; optionally the
//                   convergent members as emulations too);
//   * rocketfuel  — topology::rocketfuel parameter sweeps: seed x
//                   gadget-embedding x reflector-hierarchy extraction
//                   budget (paths_per_egress);
//   * as-hierarchy— topology::as_hierarchy sweeps (depth x seed x label
//                   scheme), emulated under the matching standard policy;
//   * random-spp  — random SPP instances (connected destination graph,
//                   random ranked permitted paths) for fuzz-style safety
//                   sweeps;
//   * policies    — the algebra::standard_policies suite;
//   * repair-targets — the known-unsafe gadget family (BAD, DISAGREE,
//                   Figure 3, BAD-gadget chains) plus conflict-dense fuzz
//                   instances: the workload fsr_campaign --repair sweeps.
//
// Every scenario's seed is derived from the campaign seed via
// derive_scenario_seed, so a campaign is reproducible from (sources,
// campaign seed) alone, regardless of worker count.
#ifndef FSR_CAMPAIGN_SCENARIO_SOURCE_H
#define FSR_CAMPAIGN_SCENARIO_SOURCE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/scenario.h"
#include "spp/random_instance.h"

namespace fsr::campaign {

class ScenarioSource {
 public:
  virtual ~ScenarioSource() = default;

  virtual const std::string& name() const noexcept = 0;

  /// Expands into scenarios, each already carrying its derived seed.
  /// `ordinal_base` is the number of scenarios generated by earlier
  /// sources in the campaign. Because the ordinal feeds seed derivation,
  /// seeds are stable for a fixed source list but NOT under source
  /// reordering; safety verdicts are seed-independent either way.
  virtual std::vector<Scenario> generate(std::uint64_t campaign_seed,
                                         std::uint64_t ordinal_base) const = 0;
};

struct GadgetSweep {
  /// Chain lengths for good_gadget_chain (Section VI-C scaling shape).
  std::vector<std::int32_t> chain_lengths = {2, 4, 8};
  /// Also emulate the convergent gadgets (GOOD, DISAGREE, fixed Figure 3).
  bool include_emulations = false;
  /// Also run the event-driven simulator over the gadget family —
  /// including the unsafe members (BAD, DISAGREE, Figure 3), whose runs
  /// supply the campaign's oscillation data.
  bool include_simulations = false;
};

struct RocketfuelSweep {
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  std::vector<bool> embeddings = {false, true};  // Figure-3 gadget on/off
  /// Reflector-hierarchy extraction budgets (paths kept per router/egress).
  std::vector<std::int32_t> paths_per_egress = {4};
  /// Also run the event-driven simulator over every extracted iBGP
  /// instance (the gadget-embedded members supply real-topology
  /// oscillation data).
  bool include_simulations = false;
};

struct AsHierarchySweep {
  std::vector<std::int32_t> depths = {3, 5};
  std::vector<std::uint64_t> seeds = {1, 2};
  /// Label schemes paired with their standard policy: business ->
  /// guideline A, business_hop_count -> guideline A (x) hop count.
  bool include_business = true;
  bool include_business_hop_count = true;
  /// Also extract a concrete SPP instance from each generated hierarchy
  /// (see spp_from_topology) and run the event-driven simulator over it.
  bool include_simulations = false;
  /// Extraction budgets for the simulation variants: permitted paths kept
  /// per node, candidate paths enumerated per node, and the edge-length
  /// cap on enumerated paths (0 = derived from the hierarchy depth).
  std::int32_t sim_paths_per_node = 3;
  std::int32_t sim_max_candidates = 16;
  std::int32_t sim_max_path_edges = 0;
};

struct RepairTargetSweep {
  /// bad_gadget_chain lengths (one BAD gadget amid count-1 GOOD ones).
  std::vector<std::int32_t> bad_chain_lengths = {2, 4};
  /// Conflict-dense fuzz instances (denser edges/rankings than the plain
  /// random-spp defaults, so a healthy fraction is actually unsafe).
  std::int32_t random_count = 4;
};

std::unique_ptr<ScenarioSource> gadget_source(GadgetSweep sweep = {});
std::unique_ptr<ScenarioSource> rocketfuel_source(RocketfuelSweep sweep = {});
std::unique_ptr<ScenarioSource> as_hierarchy_source(AsHierarchySweep sweep = {});
std::unique_ptr<ScenarioSource> random_spp_source(
    spp::RandomSppSweep sweep = {});
std::unique_ptr<ScenarioSource> standard_policy_source();
std::unique_ptr<ScenarioSource> repair_target_source(RepairTargetSweep sweep = {});

/// Names accepted by make_builtin_source, in display order.
const std::vector<std::string>& builtin_source_names();

/// Constructs a built-in source by name (default sweeps); throws
/// fsr::InvalidArgument for unknown names. `include_emulations` switches
/// the gadget source's emulation scenarios on; `include_simulations`
/// switches event-driven simulation scenarios on for the gadget,
/// rocketfuel, and as-hierarchy sources (no-ops for the rest).
/// `hierarchy_depths`, when non-empty, overrides the as-hierarchy sweep's
/// depth list (the campaign CLI's --hierarchy-depth).
std::unique_ptr<ScenarioSource> make_builtin_source(
    const std::string& name, bool include_emulations,
    bool include_simulations = false,
    const std::vector<std::int32_t>& hierarchy_depths = {});

/// Extracts a concrete SPP instance from an annotated topology: every
/// simple path to the destination (at most `max_path_edges` edges,
/// `max_candidates` candidates enumerated per node) is folded through the
/// algebra exactly as proto/reference_pv does — origination on the
/// destination-adjacent link, combined_extend outward — and paths the
/// algebra rejects (phi) are dropped. Each node keeps its
/// `paths_per_node` best candidates, ranked by algebra::compare with the
/// structural (signature, path) order breaking ties and incomparability
/// deterministically. Candidates come from a depth-first search that visits
/// neighbours nearest-to-the-destination first (ties by name), follows only
/// edges that can still reach the destination within the edge budget, and
/// stops after 64 x `max_candidates` steps per node. The first of parallel
/// links wins. The search runs on dense node ids; node names are built
/// only for the paths that are kept. Deterministic in its arguments;
/// exposed for tests and the as-hierarchy simulation sweep.
spp::SppInstance spp_from_topology(std::string name,
                                   const topology::Topology& topology,
                                   const algebra::RoutingAlgebra& algebra,
                                   std::int32_t max_path_edges,
                                   std::size_t max_candidates,
                                   std::size_t paths_per_node);

}  // namespace fsr::campaign

#endif  // FSR_CAMPAIGN_SCENARIO_SOURCE_H
