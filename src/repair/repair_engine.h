// Counterexample-guided policy repair (closing the paper's Section VI-B
// pinpointing loop).
//
// Given an SPP instance that is not provably safe, the engine:
//
//   1. encodes it once into an IncrementalSafetySession and takes the
//      minimal unsat core of the strict-monotonicity check — the
//      counterexample: the dispute cycle's policy constraints;
//   2. derives candidate edits from the core (drop a permitted path,
//      demote a path in its node's ranking, relax one strict constraint);
//   3. re-checks every candidate against the SHARED solver session —
//      untouched constraints stay in the incremental engine's base, so a
//      re-check costs the candidate's delta, not a rebuild;
//   4. when a candidate is still unsat, its new core seeds further edits
//      (depth by depth, up to max_edits), so every explored edit is
//      justified by some counterexample. Each depth's frontier is a BEAM:
//      when it outgrows beam_width, states are ranked by how often their
//      edits were demanded by counterexample cores (core-frequency
//      scoring) and only the best beam_width survive — the pruning that
//      keeps max_edits >= 3 tractable on Rocketfuel-sized instances;
//   5. cross-validates solver-safe drop/demote candidates against the
//      exact stable-assignment oracle — a stable state must exist (the
//      paper's theorem already makes a solver-safe policy converge under
//      every activation order, so no sampled SPVP run adds evidence). With
//      the default sat-search oracle the candidates share ONE persistent
//      StableSatSession: the base instance is encoded once
//      and each candidate costs a per-node CNF delta (clause groups +
//      assumptions), mirroring how the SMT side amortises re-checks;
//   6. returns all fixes of minimal edit size, ranked (ground-truth
//      verified first, then least destructive edit kinds).
//
// Thread-compatibility: a RepairEngine holds only immutable options;
// repair() builds its session and bookkeeping per call, so one engine MAY
// be shared by concurrent callers and distinct engines are fully
// independent — the same contract as SafetyAnalyzer. Borrowed sessions
// (RepairSessions below) are mutable single-thread objects: a call that
// lends them must confine them to its thread, which is exactly how the
// api::AnalysisService keeps its one-solver-session-per-worker invariant
// (each worker lends only its own SessionCache entries).
#ifndef FSR_REPAIR_REPAIR_ENGINE_H
#define FSR_REPAIR_REPAIR_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fsr/safety_analyzer.h"
#include "groundtruth/engine.h"
#include "repair/edit.h"
#include "spp/spp.h"

namespace fsr::repair {

/// How a solver-safe candidate fared against the stable-assignment oracle.
enum class GroundTruth {
  verified,        // the oracle decided and found >= 1 stable assignment
  failed,          // the oracle decided and found none
  not_applicable,  // candidate includes constraint-level (relax) edits, or
                   // the oracle's budget ran out before a verdict
};

const char* to_string(GroundTruth truth) noexcept;

struct RepairCandidate {
  std::vector<PolicyEdit> edits;  // sorted by describe(); the edit set
  bool solver_safe = false;
  GroundTruth ground_truth = GroundTruth::not_applicable;
  std::size_t stable_assignments = 0;  // when ground truth ran
  /// Which oracle budget (if any) cut the validation short. `none` when
  /// no oracle ran (relax edits) or no budget interfered. Any other value
  /// marks stable_assignments as a floor; on a not_applicable verdict it
  /// names the budget that kept the oracle from deciding at all (`states`
  /// for enumerate, `conflicts` for sat-search) — a verified verdict with
  /// a non-`none` stop just means enumeration ended early.
  groundtruth::BudgetStop oracle_budget = groundtruth::BudgetStop::none;

  std::string describe() const;  // "demote 1-2-0 at 1" or joined edits
};

struct RepairOptions {
  /// Maximum edits per candidate (search depth). The engine stops at the
  /// first depth that yields any repair, so this is a cap, not a target.
  std::size_t max_edits = 2;
  /// Frontier cap per search depth (0 = unbounded breadth-first search).
  /// An overgrown frontier is pruned to the beam_width states whose edits
  /// were most often demanded by counterexample cores, best-first; pruned
  /// states are counted in RepairReport::beam_pruned, so a "no repair
  /// found" under pruning is never silent.
  std::size_t beam_width = 64;
  /// Budget on solver re-checks across the whole search.
  std::size_t max_checks = 512;
  /// Use the shared incremental session (false = from-scratch ablation).
  bool use_incremental = true;
  /// Validate sat-search-oracle candidates through one persistent
  /// StableSatSession (per-candidate CNF deltas) instead of re-encoding
  /// each edited instance from scratch (false = the oracle ablation
  /// bench_repair measures; both paths report identical verdicts wherever
  /// no conflict budget is exhausted mid-query — a tested property).
  bool use_incremental_oracle = true;
  /// Explore constraint-level relax edits (solver-verified only).
  bool allow_relax = true;
  /// Which exact oracle validates solver-safe candidates (see
  /// groundtruth/engine.h). sat-search decides instances far beyond the
  /// enumeration cap; enumerate preserves the seed toolkit's behaviour.
  groundtruth::Mode ground_truth = groundtruth::Mode::sat_search;
  /// State cap for the enumerate oracle; candidates whose oracle budget
  /// runs out report GroundTruth::not_applicable. Enumeration is
  /// exponential in instance size, so this bounds per-candidate cost.
  std::uint64_t ground_truth_max_states = 1u << 17;
  /// Conflict budget for the sat-search oracle (0 = unbounded).
  std::uint64_t ground_truth_max_conflicts = 1u << 20;
  /// Stable-assignment enumeration bound reported per candidate.
  std::size_t ground_truth_max_solutions = 64;
};

struct RepairReport {
  std::string instance;
  /// The oracle that validated candidates (RepairOptions.ground_truth).
  groundtruth::Mode ground_truth_mode = groundtruth::Mode::sat_search;
  bool already_safe = false;
  /// The original counterexample: minimal core of the unedited instance.
  std::vector<ConstraintProvenance> initial_core;
  /// Successful candidates at the minimal edit size, ranked best-first.
  std::vector<RepairCandidate> repairs;
  std::size_t candidates_checked = 0;
  std::size_t solver_checks = 0;
  std::size_t cores_seen = 0;       // distinct counterexamples encountered
  std::size_t engine_rebuilds = 0;  // incremental-base rebuilds (ablation: 0)
  std::size_t beam_pruned = 0;      // frontier states dropped by the beam
  bool budget_exhausted = false;    // max_checks hit before the search ended
  // Incremental-oracle session effort (zero when the enumerate oracle or
  // the from-scratch ablation validated candidates instead).
  std::size_t oracle_queries = 0;
  std::size_t oracle_groups_encoded = 0;
  std::size_t oracle_cache_hits = 0;
  /// Wall time of the WHOLE repair call — search setup (spec translation,
  /// the path index, lazily built sessions) included, so borrowed-session
  /// and self-built runs measure the same thing.
  double wall_ms = 0.0;

  bool repaired() const noexcept { return !repairs.empty(); }
  const RepairCandidate* best() const noexcept {
    return repairs.empty() ? nullptr : &repairs.front();
  }
};

/// Deterministic fields only (no wall-clock data), in candidate rank order.
std::string to_json(const RepairReport& report);
/// Human-facing rendering, timings included.
std::string render_text(const RepairReport& report);

/// Caller-owned solver state a repair run may borrow instead of building
/// its own — the hook the fsr::api service layer uses to keep warm sessions
/// alive ACROSS requests (extending the within-one-run amortisation to the
/// whole service lifetime). Both pointers are optional and independent.
///
/// Contract (what keeps borrowed-session reports byte-identical to the
/// self-built path, a tested property):
///   * `strict_gate` must be a strict-mode session over exactly this
///     instance's translated spec that has only ever answered plain
///     check({}) queries — never make_variable — so its verdict/core is the
///     recorded engine answer a fresh session's first check would give. The
///     engine uses it for the initial already-safe gate + counterexample
///     and counts that query in RepairReport::solver_checks; the mutable
///     search session is then built lazily, so an already-safe instance
///     borrows everything and builds nothing.
///   * `oracle` must be a StableSatSession over exactly this base instance.
///     Its per-query blocking groups retire when each query ends, so reuse
///     across runs answers with the same verdicts/counts/witnesses as a
///     fresh session wherever no conflict budget dies mid-query (the same
///     caveat the campaign cache keys by). Session-effort stats in the
///     report are per-run deltas. Used only when options select the
///     sat-search oracle with use_incremental_oracle.
///   * `spec` must be exactly this instance's translated spec
///     (spp::algebra_from_spp(instance)->symbolic()) and must outlive the
///     repair() call. The search reads it instead of translating the
///     instance again — the service lends the spec it just built a cold
///     gate from, so a cold repair translates once. Without a loan (the
///     fsr_repair CLI, tests, a warm gate) the search translates itself.
struct RepairSessions {
  IncrementalSafetySession* strict_gate = nullptr;
  groundtruth::StableSatSession* oracle = nullptr;
  const algebra::SymbolicSpec* spec = nullptr;
};

class RepairEngine {
 public:
  RepairEngine() : RepairEngine(RepairOptions()) {}
  explicit RepairEngine(RepairOptions options) : options_(options) {}

  const RepairOptions& options() const noexcept { return options_; }

  /// Runs the repair loop. A report's deterministic fields are a pure
  /// function of (instance, options). `sessions` optionally lends warm
  /// solver state (see RepairSessions); the deterministic report fields do
  /// not depend on what was lent.
  RepairReport repair(const spp::SppInstance& instance,
                      const RepairSessions& sessions = {}) const;

 private:
  RepairOptions options_;
};

/// The compact per-scenario digest the campaign layer embeds in outcomes
/// and reports. All fields are deterministic.
struct RepairSummary {
  bool attempted = false;
  bool solver_repaired = false;  // some candidate made the solver say safe
  bool verified = false;         // the best candidate is ground-truthed
  std::string ground_truth_mode;  // oracle name ("enumerate"/"sat-search")
  std::string oracle_budget;  // best candidate's BudgetStop ("none", ...)
  std::size_t edit_count = 0;    // best candidate's edit count
  std::vector<std::string> edits;  // best candidate's edit descriptions
  std::size_t candidates_checked = 0;
  std::size_t solver_checks = 0;
  std::string error;  // non-empty when the repair attempt itself threw
};

RepairSummary summarize(const RepairReport& report);

}  // namespace fsr::repair

#endif  // FSR_REPAIR_REPAIR_ENGINE_H
