// Event-driven SPVP convergence simulator.
//
// The safety analyzer and the ground-truth oracles answer WHETHER a Stable
// Paths Problem configuration can diverge; this module answers HOW it
// converges (or visibly fails to): a discrete-event simulation of the
// Simple Path Vector Protocol in which nodes exchange announcement and
// withdrawal messages over per-link queues with seeded delays, batch their
// updates behind MRAI-style per-node timers, optionally suppress
// advertisements towards the next hop (split horizon / poisoned reverse),
// and react to churn — link flaps, session resets, staged originations.
//
// Determinism contract (the same one every fsr subsystem carries): a run is
// a pure function of (instance, SimOptions). All randomness — per-link
// delays, activation offsets, churn schedules — is drawn ONCE up front from
// the seed, events are processed in (tick, insertion-sequence) order, and no
// wall clock or thread identity ever enters the state. Same instance + same
// options => the same event trace, byte for byte, at any --threads value.
//
// The machine runs on ids: simulate() builds one view that every replica
// shares — spp::PathIndex's node ids (sorted-name order) and path ids, plus
// links in edges() order — and names return only when the SimResult and
// the trace lines are assembled. Because the id orders are the name
// orders, the ids change no neighbour order, RNG draw or event sequence.
//
// Because the post-churn system is a deterministic transition system, the
// classic SPVP divergence question becomes decidable in the simulator:
// oscillation is detected EXACTLY. The default detector maintains an
// incrementally-updated 64-bit hash of the full machine state (per-component
// hashes for selections, adj-rib-ins, down links, MRAI timers, and the
// in-flight queue, updated at each mutation site), runs Brent's cycle
// detection over the post-churn hash sequence, and confirms every hash match
// against the canonical state encoding — the whole state as fixed-width ids
// with section terminators, exact whatever the node names are — so a hash
// collision can never fake a cycle (rejections are counted in the
// sim.hash_collisions metric).
// The PR-8 full-canonicalisation detector is kept selectable
// (SimOptions::detector = "canonical") for the differential suite and the
// bench_sim ablation; the two are byte-identical on every SimResult field.
// A terminating run ends with an empty event queue; its final selections are
// checked against the stability predicate (`fixed_point_stable`), and the
// test suite differentially checks them against the SAT ground-truth oracle.
//
// Observability: simulate() flushes per-run deltas to the obs registry
// (sim.runs, sim.messages, sim.converged, sim.oscillations,
// sim.hash_collisions, the sim.convergence_steps histogram), wraps the run
// in a "sim.run" trace span, and leaves one flight-recorder mark per run —
// all at the run boundary, per the guidelines in obs/metrics.h, and none of
// it ever feeds back into the result.
#ifndef FSR_SIM_SIMULATOR_H
#define FSR_SIM_SIMULATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "spp/spp.h"

namespace fsr::sim {

/// The churn scenario names simulate() accepts (display order):
///   steady        — every node originates at tick 0; no churn.
///   staged        — seeded per-node activation offsets stagger the initial
///                   originations (announcement waves interleave).
///   link-flap     — steady start, then one seeded link goes down (in-flight
///                   messages on it are lost, both ends withdraw state) and
///                   comes back up a seeded number of ticks later.
///   session-reset — steady start, then one seeded link's session drops and
///                   immediately re-establishes: both ends forget what the
///                   other advertised and re-announce their current choice.
const std::vector<std::string>& scenario_names();

/// True when `name` is one of scenario_names() — the wire/CLI validation
/// shared by api/request.cpp and fsr_campaign.
bool is_scenario_name(const std::string& name);

/// The advertisement-suppression policy names simulate() accepts:
///   none             — every selection change is advertised to every
///                      neighbour over an up link (the SPVP default).
///   split-horizon    — a node never advertises its selection to the
///                      neighbour the selected path goes through (the
///                      classic RIP rule); the peer keeps whatever it last
///                      heard, so staleness is possible by design.
///   poisoned-reverse — like split-horizon, but the next-hop neighbour
///                      receives an explicit withdrawal instead of silence.
const std::vector<std::string>& suppression_names();

/// True when `name` is one of suppression_names() — the wire/CLI validation
/// shared by api/request.cpp and fsr_campaign.
bool is_suppression_name(const std::string& name);

/// Tuning knobs for one simulation run. `seed`, `scenario`, `suppression`
/// and `max_steps` are per-request identity (a SimulateRequest overrides
/// them); the rest are service-level configuration, part of ServiceOptions
/// like every other engine's option struct.
struct SimOptions {
  /// Seeds ALL randomness: per-link delays, staged offsets, churn picks.
  std::uint64_t seed = 1;
  /// One of scenario_names(). simulate() throws fsr::InvalidArgument on
  /// anything else.
  std::string scenario = "steady";
  /// One of suppression_names(). simulate() throws fsr::InvalidArgument on
  /// anything else.
  std::string suppression = "none";
  /// Event-processing budget. A run that neither quiesces nor repeats a
  /// state within the budget reports converged=false, oscillating=false,
  /// cutoff=true.
  std::uint64_t max_steps = 100000;
  /// MRAI batching window in ticks: after flushing its advertisements a
  /// node suppresses further sends for this long (changes are batched into
  /// one flush when the timer fires). 0 = pure triggered updates.
  std::uint32_t mrai_ticks = 0;
  /// Per-link delivery delays are drawn uniformly from [1, max_link_delay]
  /// once at start and stay fixed for the run.
  std::uint32_t max_link_delay = 4;
  /// Capture a human-readable line per processed event in SimResult::trace
  /// (the seeded-determinism property tests diff these). Off by default —
  /// traces are test/debug state, never part of a wire response.
  bool record_trace = false;
  /// Oscillation-detector implementation: "incremental" (default) is the
  /// incremental-hash + Brent detector; "canonical" is the PR-8
  /// full-canonicalisation detector, kept for the differential suite and
  /// the bench_sim ablation. Both are exact and byte-identical.
  std::string detector = "incremental";
  /// Test/debug seam: the incremental detector's per-step hash is masked
  /// with this value before comparison, so tests can force hash collisions
  /// and exercise the canonical-verification path. Results are unaffected
  /// by construction (collisions are always verified away); never part of
  /// a wire request.
  std::uint64_t detector_hash_mask = ~0ULL;
};

/// What one run did. Every field is deterministic in (instance, options) —
/// SimResult is rendered into wire responses and campaign reports, so it
/// carries no wall-clock or scheduling state at all.
struct SimResult {
  /// The event queue drained completely: the protocol quiesced.
  bool converged = false;
  /// An exact machine-state repeat was found after the churn schedule was
  /// exhausted: the run provably cycles forever under this schedule.
  bool oscillating = false;
  /// Neither verdict: the max_steps budget cut the run off undecided. A
  /// cutoff run carries NO final_assignment and fixed_point_stable=false —
  /// mid-flight selections are not a fixed point and are never reported as
  /// one.
  bool cutoff = false;
  /// Events processed (== max_steps when the budget cut the run off).
  std::uint64_t steps = 0;
  /// Virtual time of the last processed event.
  std::uint64_t ticks = 0;
  /// Announcement/withdrawal messages enqueued (including any lost to a
  /// link flap before delivery).
  std::uint64_t messages = 0;
  /// Times some node changed its selected path.
  std::uint64_t route_changes = 0;
  /// Virtual time at which the final selection was reached (converged runs).
  std::uint64_t convergence_tick = 0;
  /// Steps between the first occurrence of the repeated state and its
  /// repeat (oscillating runs; 0 otherwise).
  std::uint64_t cycle_length = 0;
  /// Whether the final selections satisfy spp::is_stable_assignment — for a
  /// converged run this is the fixed-point-vs-stability check the
  /// differential suite extends to the SAT oracle. Always false on cutoff.
  bool fixed_point_stable = false;
  /// The scenario that ran (echoed for reports).
  std::string scenario;
  /// The suppression policy that ran (echoed for reports).
  std::string suppression;
  /// Final selected path per node (nodes routing to nothing are absent).
  /// Empty on cutoff runs: a truncated run has no final selection.
  spp::Assignment final_assignment;
  /// One line per processed event when SimOptions::record_trace is set.
  std::vector<std::string> trace;
};

/// Runs the event-driven SPVP simulation of `instance` under `options`.
/// Deterministic in its arguments; throws fsr::InvalidArgument on an
/// unknown scenario/suppression/detector name or a zero max_steps.
SimResult simulate(const spp::SppInstance& instance, const SimOptions& options);

}  // namespace fsr::sim

#endif  // FSR_SIM_SIMULATOR_H
