#include "campaign/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "util/strings.h"

namespace fsr::campaign {
namespace {

std::string quoted(const std::string& text) { return util::json_quoted(text); }

std::string fixed3(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

bool executed(const ScenarioResult& result) {
  return !result.deduplicated && !result.cache_hit && result.outcome != nullptr;
}

/// Power-of-two bucket index for counters: 0 -> 0, and bucket i (i >= 1)
/// covers [2^(i-1), 2^i). The integer sibling of the wall-ms bucketing in
/// solve_time_histogram().
std::size_t pow2_bucket(std::uint64_t value) {
  std::size_t bucket = 0;
  while (value > 0) {
    ++bucket;
    value >>= 1;
  }
  return bucket;
}

const char* safety_verdict_text(const SafetyReport& report) {
  return report.verdict == SafetyVerdict::safe ? "safe" : "not_provably_safe";
}

}  // namespace

void append_outcome_json(std::string& out, const ScenarioOutcome& outcome) {
  if (!outcome.error.empty()) {
    out += ", \"verdict\": \"error\", \"error\": " + quoted(outcome.error);
  }
  if (outcome.safety.has_value()) {
    const SafetyReport& safety = *outcome.safety;
    out += ", \"verdict\": " + quoted(safety_verdict_text(safety));
    out += ", \"checks\": [";
    for (std::size_t i = 0; i < safety.checks.size(); ++i) {
      const MonotonicityReport& check = safety.checks[i];
      if (i > 0) out += ", ";
      out += "{\"algebra\": " + quoted(check.algebra_name) + ", \"mode\": " +
             quoted(check.mode == MonotonicityMode::strict ? "strict"
                                                           : "plain") +
             ", \"holds\": " + (check.holds ? "true" : "false") +
             ", \"preference_constraints\": " +
             std::to_string(check.preference_constraint_count) +
             ", \"monotonicity_constraints\": " +
             std::to_string(check.monotonicity_constraint_count);
      if (!check.holds && !check.unsat_core.empty()) {
        out += ", \"core\": [";
        for (std::size_t j = 0; j < check.unsat_core.size(); ++j) {
          if (j > 0) out += ", ";
          out += quoted(check.unsat_core[j].description);
        }
        out += "]";
      }
      out += "}";
    }
    out += "]";
  }
  if (outcome.repair.has_value()) {
    const repair::RepairSummary& repair = *outcome.repair;
    out += ", \"repair\": {\"solver_repaired\": ";
    out += repair.solver_repaired ? "true" : "false";
    out += ", \"verified\": ";
    out += repair.verified ? "true" : "false";
    if (!repair.ground_truth_mode.empty()) {
      out += ", \"ground_truth_mode\": " + quoted(repair.ground_truth_mode);
    }
    if (!repair.oracle_budget.empty()) {
      out += ", \"oracle_budget\": " + quoted(repair.oracle_budget);
    }
    out += ", \"edit_count\": " + std::to_string(repair.edit_count) +
           ", \"edits\": [";
    for (std::size_t j = 0; j < repair.edits.size(); ++j) {
      if (j > 0) out += ", ";
      out += quoted(repair.edits[j]);
    }
    out += "], \"candidates\": " + std::to_string(repair.candidates_checked) +
           ", \"checks\": " + std::to_string(repair.solver_checks);
    if (!repair.error.empty()) out += ", \"error\": " + quoted(repair.error);
    out += "}";
  }
  if (outcome.sim.has_value()) {
    // Every simulation field is deterministic in (content, seed), so the
    // whole block lives in the default JSON — nothing is timings-gated.
    const sim::SimResult& sim = *outcome.sim;
    out += ", \"verdict\": ";
    out += sim.converged     ? quoted("converged")
           : sim.oscillating ? quoted("oscillating")
                             : quoted("cutoff");
    out += ", \"sim_scenario\": " + quoted(sim.scenario) +
           ", \"sim_suppression\": " + quoted(sim.suppression) +
           ", \"steps\": " + std::to_string(sim.steps) +
           ", \"ticks\": " + std::to_string(sim.ticks) +
           ", \"messages\": " + std::to_string(sim.messages) +
           ", \"route_changes\": " + std::to_string(sim.route_changes);
    if (sim.converged) {
      out += ", \"convergence_tick\": " +
             std::to_string(sim.convergence_tick) +
             std::string(", \"fixed_point_stable\": ") +
             (sim.fixed_point_stable ? "true" : "false");
    }
    if (sim.oscillating) {
      out += ", \"cycle_length\": " + std::to_string(sim.cycle_length);
    }
  }
  if (outcome.emulation.has_value()) {
    const EmulationResult& emu = *outcome.emulation;
    out += ", \"verdict\": ";
    out += emu.quiesced ? quoted("converged") : quoted("diverged");
    out += ", \"convergence_time_us\": " +
           std::to_string(emu.convergence_time) +
           ", \"end_time_us\": " + std::to_string(emu.end_time) +
           ", \"messages\": " + std::to_string(emu.messages) +
           ", \"bytes\": " + std::to_string(emu.bytes) +
           ", \"route_changes\": " + std::to_string(emu.route_changes) +
           ", \"nodes\": " + std::to_string(emu.node_count);
  }
}

namespace {

void append_scenario_json(std::string& out, const ScenarioResult& result,
                          const JsonOptions& options, const char* indent) {
  out += indent;
  out += "{\"id\": " + quoted(result.id) +
         ", \"source\": " + quoted(result.source) +
         ", \"kind\": " + quoted(to_string(result.kind)) +
         ", \"seed\": " + quoted(std::to_string(result.seed)) +
         ", \"content\": " + quoted(result.content_id) +
         ", \"deduplicated\": " + (result.deduplicated ? "true" : "false");
  if (options.include_timings) {
    // Cache provenance is execution metadata, like wall-clock time: a warm
    // run's deterministic fields must match the cold run that filled the
    // cache, so the flag is timings-gated.
    out += std::string(", \"cache_hit\": ") +
           (result.cache_hit ? "true" : "false");
  }
  const ScenarioOutcome* outcome = result.outcome.get();
  if (outcome != nullptr) append_outcome_json(out, *outcome);
  if (options.include_timings && outcome != nullptr) {
    out += ", \"wall_ms\": " + fixed3(outcome->wall_ms);
  }
  out += "}";
}

/// The comma-separated fields of a summary object, WITHOUT braces — the
/// call sites wrap them (the per-source objects prepend a "source" field).
std::string summary_json_fields(const SourceSummary& summary, bool with_sim,
                                bool with_repair) {
  std::string out = "\"scenarios\": " + std::to_string(summary.scenarios) +
                    ", \"safe\": " + std::to_string(summary.safe) +
                    ", \"not_provably_safe\": " +
                    std::to_string(summary.not_provably_safe) +
                    ", \"converged\": " + std::to_string(summary.converged) +
                    ", \"diverged\": " + std::to_string(summary.diverged);
  if (with_sim) {
    out += ", \"sim_runs\": " + std::to_string(summary.sim_runs) +
           ", \"sim_converged\": " + std::to_string(summary.sim_converged) +
           ", \"sim_oscillating\": " +
           std::to_string(summary.sim_oscillating) +
           ", \"sim_cutoff\": " + std::to_string(summary.sim_cutoff);
  }
  if (with_repair) {
    out += ", \"repairs_attempted\": " +
           std::to_string(summary.repairs_attempted) +
           ", \"repaired\": " + std::to_string(summary.repaired) +
           ", \"repair_verified\": " + std::to_string(summary.repair_verified);
  }
  return out;
}

void tally(SourceSummary& summary, const ScenarioResult& result) {
  ++summary.scenarios;
  const ScenarioOutcome* outcome = result.outcome.get();
  if (outcome == nullptr) return;
  if (outcome->safety.has_value()) {
    if (outcome->safety->verdict == SafetyVerdict::safe) {
      ++summary.safe;
    } else {
      ++summary.not_provably_safe;
    }
  }
  if (outcome->emulation.has_value()) {
    if (outcome->emulation->quiesced) {
      ++summary.converged;
    } else {
      ++summary.diverged;
    }
  }
  if (outcome->sim.has_value()) {
    ++summary.sim_runs;
    if (outcome->sim->converged) ++summary.sim_converged;
    if (outcome->sim->oscillating) ++summary.sim_oscillating;
    if (outcome->sim->cutoff) ++summary.sim_cutoff;
  }
  if (outcome->repair.has_value()) {
    ++summary.repairs_attempted;
    if (outcome->repair->solver_repaired) ++summary.repaired;
    if (outcome->repair->verified) ++summary.repair_verified;
  }
}

}  // namespace

std::vector<std::pair<std::string, SourceSummary>> CampaignReport::per_source()
    const {
  std::vector<std::pair<std::string, SourceSummary>> out;
  for (const ScenarioResult& result : results) {
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& entry) {
      return entry.first == result.source;
    });
    if (it == out.end()) {
      out.emplace_back(result.source, SourceSummary{});
      it = std::prev(out.end());
    }
    tally(it->second, result);
  }
  return out;
}

SourceSummary CampaignReport::totals() const {
  SourceSummary summary;
  for (const ScenarioResult& result : results) tally(summary, result);
  return summary;
}

std::vector<CoreConstraintCount> CampaignReport::core_frequencies() const {
  std::map<std::string, std::size_t> counts;
  for (const ScenarioResult& result : results) {
    if (result.outcome == nullptr || !result.outcome->safety.has_value()) {
      continue;
    }
    const auto* core = result.outcome->safety->failing_core();
    if (core == nullptr) continue;
    // Count each constraint once per scenario, however often it recurs
    // within that scenario's core.
    std::set<std::string> seen;
    for (const ConstraintProvenance& entry : *core) {
      if (seen.insert(entry.description).second) ++counts[entry.description];
    }
  }
  std::vector<CoreConstraintCount> out;
  out.reserve(counts.size());
  for (const auto& [description, count] : counts) {
    out.push_back(CoreConstraintCount{description, count});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.count != b.count ? a.count > b.count
                              : a.description < b.description;
  });
  return out;
}

std::vector<std::size_t> CampaignReport::solve_time_histogram() const {
  std::vector<std::size_t> buckets;
  for (const ScenarioResult& result : results) {
    if (!executed(result)) continue;
    const double ms = result.outcome->wall_ms;
    const std::size_t bucket =
        ms < 1.0 ? 0
                 : static_cast<std::size_t>(std::floor(std::log2(ms))) + 1;
    if (bucket >= buckets.size()) buckets.resize(bucket + 1, 0);
    ++buckets[bucket];
  }
  return buckets;
}

std::vector<std::size_t> CampaignReport::repair_edit_size_histogram() const {
  std::vector<std::size_t> buckets;
  for (const ScenarioResult& result : results) {
    if (result.outcome == nullptr || !result.outcome->repair.has_value()) {
      continue;
    }
    const repair::RepairSummary& repair = *result.outcome->repair;
    if (!repair.solver_repaired) continue;
    if (repair.edit_count >= buckets.size()) {
      buckets.resize(repair.edit_count + 1, 0);
    }
    ++buckets[repair.edit_count];
  }
  return buckets;
}

std::vector<std::size_t> CampaignReport::sim_message_histogram(
    const std::string& source) const {
  std::vector<std::size_t> buckets;
  for (const ScenarioResult& result : results) {
    if (result.outcome == nullptr || !result.outcome->sim.has_value() ||
        (!source.empty() && result.source != source)) {
      continue;
    }
    const std::size_t bucket = pow2_bucket(result.outcome->sim->messages);
    if (bucket >= buckets.size()) buckets.resize(bucket + 1, 0);
    ++buckets[bucket];
  }
  return buckets;
}

std::vector<std::size_t> CampaignReport::sim_convergence_step_histogram(
    const std::string& source) const {
  std::vector<std::size_t> buckets;
  for (const ScenarioResult& result : results) {
    if (result.outcome == nullptr || !result.outcome->sim.has_value() ||
        !result.outcome->sim->converged ||
        (!source.empty() && result.source != source)) {
      continue;
    }
    const std::size_t bucket = pow2_bucket(result.outcome->sim->steps);
    if (bucket >= buckets.size()) buckets.resize(bucket + 1, 0);
    ++buckets[bucket];
  }
  return buckets;
}

std::vector<std::size_t> CampaignReport::slowest(std::size_t limit) const {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (executed(results[i])) indices.push_back(i);
  }
  std::sort(indices.begin(), indices.end(), [&](std::size_t a, std::size_t b) {
    const double wa = results[a].outcome->wall_ms;
    const double wb = results[b].outcome->wall_ms;
    return wa != wb ? wa > wb : a < b;
  });
  if (indices.size() > limit) indices.resize(limit);
  return indices;
}

std::string to_json(const CampaignReport& report, JsonOptions options) {
  std::string out = "{\n";
  // "solved" and "cache_hits" are execution provenance — a warm cached run
  // solves nothing yet must render byte-identically to the cold run that
  // produced the outcomes — so they live in the timings section.
  out += "  \"campaign\": {\"seed\": " + quoted(std::to_string(
             report.campaign_seed)) +
         ", \"scenarios\": " + std::to_string(report.results.size()) +
         ", \"deduplicated\": " + std::to_string(report.deduplicated_count) +
         "},\n";
  const SourceSummary totals = report.totals();
  const bool with_sim = totals.sim_runs > 0;
  const bool with_repair = totals.repairs_attempted > 0;
  out += "  \"totals\": {" +
         summary_json_fields(totals, with_sim, with_repair) + "}";
  const auto append_counts = [](std::string& text,
                                const std::vector<std::size_t>& counts) {
    bool first_count = true;
    for (const std::size_t count : counts) {
      if (!first_count) text += ", ";
      first_count = false;
      text += std::to_string(count);
    }
  };
  out += ",\n  \"per_source\": [";
  bool first = true;
  for (const auto& [source, summary] : report.per_source()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"source\": " + quoted(source) + ", " +
           summary_json_fields(summary, with_sim, with_repair);
    if (summary.sim_runs > 0) {
      // Per-source distributions (deterministic, like the campaign-wide
      // ones below): how THIS source's simulated instances converge and
      // how chatty they are — the rocketfuel/as-hierarchy axes read these.
      out += ", \"sim_message_histogram_pow2\": [";
      append_counts(out, report.sim_message_histogram(source));
      out += "], \"sim_convergence_steps_histogram_pow2\": [";
      append_counts(out, report.sim_convergence_step_histogram(source));
      out += "]";
    }
    out += "}";
  }
  out += "],\n";
  if (with_sim) {
    // Both distributions are deterministic in (content, seed) — see
    // sim_message_histogram() — so, unlike the solve-time histogram, they
    // belong in the default byte-stable JSON.
    out += "  \"simulation_summary\": {\"runs\": " +
           std::to_string(totals.sim_runs) +
           ", \"converged\": " + std::to_string(totals.sim_converged) +
           ", \"oscillating\": " + std::to_string(totals.sim_oscillating) +
           ", \"cutoff\": " + std::to_string(totals.sim_cutoff) +
           ", \"message_histogram_pow2\": [";
    first = true;
    for (const std::size_t count : report.sim_message_histogram()) {
      if (!first) out += ", ";
      first = false;
      out += std::to_string(count);
    }
    out += "], \"convergence_steps_histogram_pow2\": [";
    first = true;
    for (const std::size_t count : report.sim_convergence_step_histogram()) {
      if (!first) out += ", ";
      first = false;
      out += std::to_string(count);
    }
    out += "]},\n";
  }
  out += "  \"core_frequency\": [";
  first = true;
  for (const CoreConstraintCount& entry : report.core_frequencies()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"constraint\": " + quoted(entry.description) +
           ", \"count\": " + std::to_string(entry.count) + "}";
  }
  out += "],\n";
  if (with_repair) {
    out += "  \"repair_summary\": {\"attempted\": " +
           std::to_string(totals.repairs_attempted) +
           ", \"repaired\": " + std::to_string(totals.repaired) +
           ", \"verified\": " + std::to_string(totals.repair_verified) +
           ", \"edit_size_histogram\": [";
    first = true;
    for (const std::size_t count : report.repair_edit_size_histogram()) {
      if (!first) out += ", ";
      first = false;
      out += std::to_string(count);
    }
    out += "]},\n";
  }
  out += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    append_scenario_json(out, report.results[i], options, "    ");
    out += i + 1 < report.results.size() ? ",\n" : "\n";
  }
  out += "  ]";
  if (options.include_timings) {
    out += ",\n  \"timings\": {\"threads\": " + std::to_string(report.threads) +
           ", \"solved\": " + std::to_string(report.solved_count) +
           ", \"cache_hits\": " + std::to_string(report.cache_hit_count) +
           ", \"total_wall_ms\": " + fixed3(report.total_wall_ms) +
           ", \"histogram_pow2_ms\": [";
    first = true;
    for (const std::size_t count : report.solve_time_histogram()) {
      if (!first) out += ", ";
      first = false;
      out += std::to_string(count);
    }
    out += "], \"effort\": {\"sat_queries\": " +
           std::to_string(report.effort.sat_queries) +
           ", \"sat_conflicts\": " +
           std::to_string(report.effort.sat_conflicts) +
           ", \"sat_decisions\": " +
           std::to_string(report.effort.sat_decisions) +
           ", \"sat_propagations\": " +
           std::to_string(report.effort.sat_propagations) +
           ", \"smt_checks\": " + std::to_string(report.effort.smt_checks) +
           ", \"repair_solver_checks\": " +
           std::to_string(report.effort.repair_solver_checks) + "}";
    out += ", \"slowest\": [";
    first = true;
    for (const std::size_t index : report.slowest()) {
      if (!first) out += ", ";
      first = false;
      out += "{\"id\": " + quoted(report.results[index].id) +
             ", \"wall_ms\": " + fixed3(report.results[index].outcome->wall_ms) +
             "}";
    }
    out += "]}";
  }
  out += "\n}\n";
  return out;
}

std::string render_table(const CampaignReport& report) {
  char buf[256];
  std::string out;
  out += "==== FSR campaign report ====\n";
  std::snprintf(buf, sizeof(buf),
                "seed %llu | %zu scenarios | %zu solved | %zu deduplicated | "
                "%zu cache hits | %d threads | %.1f ms wall\n",
                static_cast<unsigned long long>(report.campaign_seed),
                report.results.size(), report.solved_count,
                report.deduplicated_count, report.cache_hit_count,
                report.threads, report.total_wall_ms);
  out += buf;

  const bool with_sim = report.totals().sim_runs > 0;
  const bool with_repair = report.totals().repairs_attempted > 0;
  std::string header_extra;
  if (with_sim) header_extra += "  sim conv/osc/runs";
  if (with_repair) header_extra += "  repaired/attempted";
  std::snprintf(buf, sizeof(buf), "%-16s%10s%8s%14s%10s%10s%s\n", "source",
                "scenarios", "safe", "not-provable", "converged", "diverged",
                header_extra.c_str());
  out += buf;
  const auto emit_row = [&](const std::string& source,
                            const SourceSummary& summary) {
    std::snprintf(buf, sizeof(buf), "%-16s%10zu%8zu%14zu%10zu%10zu",
                  source.c_str(), summary.scenarios, summary.safe,
                  summary.not_provably_safe, summary.converged,
                  summary.diverged);
    out += buf;
    if (with_sim) {
      std::snprintf(buf, sizeof(buf), "  %zu/%zu/%zu", summary.sim_converged,
                    summary.sim_oscillating, summary.sim_runs);
      out += buf;
    }
    if (with_repair) {
      std::snprintf(buf, sizeof(buf), "  %zu/%zu (%zu verified)",
                    summary.repaired, summary.repairs_attempted,
                    summary.repair_verified);
      out += buf;
    }
    out += "\n";
  };
  for (const auto& [source, summary] : report.per_source()) {
    emit_row(source, summary);
  }
  emit_row("TOTAL", report.totals());

  const auto message_histogram = report.sim_message_histogram();
  if (!message_histogram.empty()) {
    out += "\nsimulation message-count histogram (power-of-two buckets):\n";
    for (std::size_t i = 0; i < message_histogram.size(); ++i) {
      const std::uint64_t lo = i == 0 ? 0 : 1ull << (i - 1);
      const std::uint64_t hi = i == 0 ? 1 : 1ull << i;
      std::snprintf(buf, sizeof(buf), "  [%8llu, %8llu)  %zu\n",
                    static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(hi), message_histogram[i]);
      out += buf;
    }
  }

  const auto edit_histogram = report.repair_edit_size_histogram();
  if (!edit_histogram.empty()) {
    out += "\nrepair edit-size histogram (best candidate per scenario):\n";
    for (std::size_t k = 1; k < edit_histogram.size(); ++k) {
      std::snprintf(buf, sizeof(buf), "  %zu edit(s)  %zu\n", k,
                    edit_histogram[k]);
      out += buf;
    }
  }

  const auto cores = report.core_frequencies();
  if (!cores.empty()) {
    out += "\nmost frequent unsat-core constraints:\n";
    const std::size_t shown = std::min<std::size_t>(cores.size(), 10);
    for (std::size_t i = 0; i < shown; ++i) {
      std::snprintf(buf, sizeof(buf), "%6zux  %s\n", cores[i].count,
                    cores[i].description.c_str());
      out += buf;
    }
  }

  const auto histogram = report.solve_time_histogram();
  if (!histogram.empty()) {
    out += "\nsolve-time histogram (power-of-two ms buckets):\n";
    for (std::size_t i = 0; i < histogram.size(); ++i) {
      const double lo = i == 0 ? 0.0 : std::pow(2.0, static_cast<double>(i) - 1);
      const double hi = std::pow(2.0, static_cast<double>(i));
      std::snprintf(buf, sizeof(buf), "  [%8.1f, %8.1f) ms  %zu\n", lo, hi,
                    histogram[i]);
      out += buf;
    }
  }

  const auto slowest = report.slowest();
  if (!slowest.empty()) {
    out += "\nslowest scenarios:\n";
    for (const std::size_t index : slowest) {
      std::snprintf(buf, sizeof(buf), "  %10.2f ms  %s\n",
                    report.results[index].outcome->wall_ms,
                    report.results[index].id.c_str());
      out += buf;
    }
  }
  return out;
}

}  // namespace fsr::campaign
