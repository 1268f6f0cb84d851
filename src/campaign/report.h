// Campaign result aggregation and rendering.
//
// A CampaignReport collects every scenario's outcome (in scenario order,
// independent of which worker solved it) plus campaign-level aggregates:
// verdict counts per source, the unsat-core constraint frequency table
// (which policy constraints recur across failing configurations — the
// campaign-scale version of the paper's pinpointing workflow), solve-time
// histograms, and the slowest scenarios.
//
// Rendering contract: to_json() with default options emits ONLY
// deterministic fields — reports are byte-identical across runs for a
// fixed campaign seed, regardless of worker count AND regardless of cache
// temperature (a warm --cache-dir run matches the cold run that filled
// it). Wall-clock data and execution provenance (per-scenario solve
// times, cache_hit flags, solved/cache-hit counts, histogram, slowest
// table, thread count) are included only when JsonOptions.include_timings
// is set. The table renderer is human-facing and always shows both.
#ifndef FSR_CAMPAIGN_REPORT_H
#define FSR_CAMPAIGN_REPORT_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/scenario.h"

namespace fsr::campaign {

/// One scenario's slot in the report. `outcome` may be shared with other
/// results (duplicates and cache hits point at the representative's).
struct ScenarioResult {
  std::string id;
  std::string source;
  ScenarioKind kind = ScenarioKind::safety;
  std::uint64_t seed = 0;
  std::string content_id;     // 16-hex digest of the canonical content
  bool deduplicated = false;  // duplicate of an earlier scenario this run
  bool cache_hit = false;     // served from the runner's persistent cache
  std::shared_ptr<const ScenarioOutcome> outcome;
};

struct SourceSummary {
  std::size_t scenarios = 0;
  std::size_t safe = 0;
  std::size_t not_provably_safe = 0;
  std::size_t converged = 0;
  std::size_t diverged = 0;
  // Event-driven simulation aggregates (all zero unless the campaign ran
  // simulation scenarios). A run that hits its step cap counts in
  // sim_runs and sim_cutoff but in neither verdict bucket.
  std::size_t sim_runs = 0;
  std::size_t sim_converged = 0;
  std::size_t sim_oscillating = 0;
  std::size_t sim_cutoff = 0;
  // Repair campaign aggregates (all zero unless attempt_repair was on).
  std::size_t repairs_attempted = 0;
  std::size_t repaired = 0;         // solver found a safe edit set
  std::size_t repair_verified = 0;  // ...and ground truth confirmed it
};

struct CoreConstraintCount {
  std::string description;  // policy-level provenance text
  std::size_t count = 0;    // scenarios whose failing core contains it
};

/// Solver-effort registry deltas captured around one campaign run — how
/// much CDCL/SMT work the run actually bought. Execution provenance like
/// wall clocks (warm sessions carry learned clauses across requests), so
/// it renders only under JsonOptions.include_timings.
struct SolverEffort {
  std::uint64_t sat_queries = 0;
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_decisions = 0;
  std::uint64_t sat_propagations = 0;
  std::uint64_t smt_checks = 0;
  std::uint64_t repair_solver_checks = 0;
};

struct CampaignReport {
  std::uint64_t campaign_seed = 0;
  int threads = 1;  // wall-clock-affecting only; excluded from default JSON
  std::vector<ScenarioResult> results;
  std::size_t solved_count = 0;      // scenarios actually executed
  std::size_t deduplicated_count = 0;
  std::size_t cache_hit_count = 0;
  double total_wall_ms = 0.0;
  SolverEffort effort;

  /// Verdict counts per source, in first-appearance order.
  std::vector<std::pair<std::string, SourceSummary>> per_source() const;
  SourceSummary totals() const;
  /// Failing-core constraint frequencies, sorted by count desc then text.
  std::vector<CoreConstraintCount> core_frequencies() const;
  /// Power-of-two solve-time histogram: bucket i counts outcomes with
  /// wall_ms in [2^(i-1), 2^i) ms (bucket 0: < 1 ms).
  std::vector<std::size_t> solve_time_histogram() const;
  /// Bucket k counts successfully repaired scenarios whose best candidate
  /// has k edits (bucket 0 stays 0; minimal repairs start at one edit).
  /// Empty when no scenario was repaired.
  std::vector<std::size_t> repair_edit_size_histogram() const;
  /// Power-of-two message-count distribution over simulation outcomes:
  /// bucket i counts runs with messages in [2^(i-1), 2^i) (bucket 0: zero
  /// messages). Deterministic — message counts are pure functions of
  /// (content, seed) — so it renders in the default JSON, and duplicates /
  /// cache hits count like the run that produced their shared outcome.
  /// A non-empty `source` restricts the tally to that source's scenarios —
  /// the per-source distributions rendered inside each per_source object.
  std::vector<std::size_t> sim_message_histogram(
      const std::string& source = {}) const;
  /// Same shape over activation steps, restricted to converged runs — the
  /// campaign-scale convergence-time distribution (same optional
  /// per-source restriction).
  std::vector<std::size_t> sim_convergence_step_histogram(
      const std::string& source = {}) const;
  /// Indices into `results` of the `limit` slowest executed scenarios.
  std::vector<std::size_t> slowest(std::size_t limit = 5) const;
};

struct JsonOptions {
  bool include_timings = false;
};

/// Appends the deterministic fields one outcome contributes to its
/// scenario's object in to_json — error, verdict, checks with their cores,
/// repair block, simulation and emulation digests — each preceded by
/// ", ". The campaign cache stores this same text as its record
/// (serialize_outcome), so a cached outcome holds exactly what the report
/// renders from it.
void append_outcome_json(std::string& out, const ScenarioOutcome& outcome);

std::string to_json(const CampaignReport& report, JsonOptions options = {});

/// Paper-style fixed-width table (bench_util style) for terminals.
std::string render_table(const CampaignReport& report);

}  // namespace fsr::campaign

#endif  // FSR_CAMPAIGN_REPORT_H
