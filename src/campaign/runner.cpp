#include "campaign/runner.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <unordered_map>
#include <utility>

#include "api/service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spp/translate.h"
#include "util/error.h"
#include "util/strings.h"

namespace fsr::campaign {
namespace {

/// Maps campaign options onto the service façade's one options struct.
/// The campaign runner keeps its own scheduling (dedup, cache) and uses
/// the service purely as the execution backend.
api::ServiceOptions service_options(const CampaignOptions& options) {
  api::ServiceOptions service;
  service.threads = options.threads;
  service.repair = options.repair;
  service.emulation = options.emulation;
  service.sim = options.sim;
  return service;
}

/// The scenario's primary request: safety analysis, emulation, or an
/// event-driven simulation run.
api::Request primary_request(const Scenario& scenario,
                             const CampaignOptions& options) {
  if (scenario.kind == ScenarioKind::safety) {
    api::AnalyzeSafetyRequest request;
    // Prefer the algebra payload when both are present (translated SPP
    // scenarios carry only the instance).
    if (scenario.algebra != nullptr) {
      request.algebra = scenario.algebra;
    } else {
      request.spp = scenario.spp;
    }
    return request;
  }
  if (scenario.kind == ScenarioKind::simulation) {
    api::SimulateRequest request;
    request.spp = scenario.spp;
    request.seed = scenario.seed;
    // The churn regime and suppression policy are campaign-wide: every
    // simulation scenario runs under the one configuration from
    // CampaignOptions.sim.
    request.scenario = options.sim.scenario;
    request.suppression = options.sim.suppression;
    return request;
  }
  api::EmulateRequest request;
  request.seed = scenario.seed;
  if (scenario.spp != nullptr) {
    request.spp = scenario.spp;
  } else {
    request.algebra = scenario.algebra;
    request.topology = scenario.topology;
  }
  return request;
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignOptions options)
    // With the cache disabled, skip loading the directory too: find() and
    // insert() are never called, so a warm disk cache would be pure
    // wasted startup I/O.
    : options_(std::move(options)),
      cache_(options_.use_cache ? options_.cache_dir : std::string(),
             options_.cache_max_bytes) {
  if (options_.threads < 1) {
    throw InvalidArgument("campaign thread count must be >= 1");
  }
}

std::vector<Scenario> CampaignRunner::generate(
    const std::vector<std::unique_ptr<ScenarioSource>>& sources) const {
  std::vector<Scenario> scenarios;
  for (const auto& source : sources) {
    std::vector<Scenario> batch =
        source->generate(options_.seed, scenarios.size());
    for (Scenario& scenario : batch) {
      scenarios.push_back(std::move(scenario));
    }
  }
  return scenarios;
}

CampaignReport CampaignRunner::run(
    const std::vector<std::unique_ptr<ScenarioSource>>& sources) {
  return run_scenarios(generate(sources));
}

CampaignReport CampaignRunner::run_scenarios(std::vector<Scenario> scenarios) {
  obs::Span span("campaign.run");
  span.arg("scenarios", scenarios.size());
  // Solver-effort provenance: registry deltas around the whole run. The
  // registry is process-global, so a campaign sharing its process with
  // other concurrent work would fold that work in — the CLIs run one
  // campaign per process, which is the supported reading.
  struct EffortFloor {
    obs::Counter& sat_queries = obs::registry().counter("sat.queries");
    obs::Counter& sat_conflicts = obs::registry().counter("sat.conflicts");
    obs::Counter& sat_decisions = obs::registry().counter("sat.decisions");
    obs::Counter& sat_propagations =
        obs::registry().counter("sat.propagations");
    obs::Counter& smt_checks = obs::registry().counter("smt.checks");
    obs::Counter& repair_checks =
        obs::registry().counter("repair.solver_checks");
  };
  static EffortFloor counters;
  SolverEffort floor;
  floor.sat_queries = counters.sat_queries.value();
  floor.sat_conflicts = counters.sat_conflicts.value();
  floor.sat_decisions = counters.sat_decisions.value();
  floor.sat_propagations = counters.sat_propagations.value();
  floor.smt_checks = counters.smt_checks.value();
  floor.repair_solver_checks = counters.repair_checks.value();

  CampaignReport report;
  report.campaign_seed = options_.seed;
  report.threads = options_.threads;
  report.results.resize(scenarios.size());

  // ---- sequential scheduling phase: canonicalize, dedup, consult cache --
  // All bookkeeping that affects the report's deterministic fields happens
  // here, before any request is submitted.
  constexpr std::size_t k_no_representative =
      std::numeric_limits<std::size_t>::max();
  std::vector<std::string> keys(scenarios.size());
  std::vector<std::size_t> representative(scenarios.size(),
                                          k_no_representative);
  std::unordered_map<std::string, std::size_t> first_with_key;
  std::vector<std::size_t> work;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& scenario = scenarios[i];
    ScenarioResult& result = report.results[i];
    result.id = scenario.id;
    result.source = scenario.source;
    result.kind = scenario.kind;
    result.seed = scenario.seed;
    validate_scenario(scenario);
    keys[i] = scenario_cache_key(scenario, options_.attempt_repair,
                                 options_.repair, options_.sim);
    result.content_id = util::content_digest(keys[i]);

    const auto [it, inserted] = first_with_key.emplace(keys[i], i);
    if (!inserted) {
      result.deduplicated = true;
      representative[i] = it->second;
      ++report.deduplicated_count;
      continue;
    }
    if (options_.use_cache) {
      if (auto cached = cache_.find(keys[i])) {
        result.cache_hit = true;
        result.outcome = std::move(cached);
        ++report.cache_hit_count;
        continue;
      }
    }
    work.push_back(i);
  }
  report.solved_count = work.size();

  // -------- parallel phase: dispatch unique scenarios through the API --
  // The service owns the worker pool (and, per worker, the solver-session
  // invariants the runner used to guarantee inline — see api/service.h).
  // Two waves keep repair requests content-gated exactly as before: the
  // primary wave answers safety/emulation, and every not-provably-safe SPP
  // safety scenario of a repair campaign gets a follow-up repair request.
  // Repair outcomes (like safety verdicts) are a pure function of content,
  // so the cache/dedup machinery keeps collapsing duplicates.
  std::vector<std::shared_ptr<const ScenarioOutcome>> outcomes(
      scenarios.size());
  api::AnalysisService service(service_options(options_));
  std::vector<std::future<api::Response>> primary;
  primary.reserve(work.size());
  for (const std::size_t index : work) {
    primary.push_back(
        service.submit(primary_request(scenarios[index], options_)));
  }

  std::vector<std::pair<std::size_t, std::future<api::Response>>> followups;
  const auto consume_primary = [&](std::size_t slot) {
    const std::size_t index = work[slot];
    const Scenario& scenario = scenarios[index];
    const api::Response response = primary[slot].get();
    auto outcome = std::make_shared<ScenarioOutcome>();
    outcome->error = response.error;
    outcome->wall_ms = response.wall_ms;
    if (response.safety.has_value()) outcome->safety = response.safety;
    if (response.emulation.has_value()) {
      outcome->emulation = response.emulation;
    }
    if (response.sim.has_value()) outcome->sim = response.sim;
    if (options_.attempt_repair && response.error.empty() &&
        scenario.kind == ScenarioKind::safety && scenario.spp != nullptr &&
        outcome->safety.has_value() &&
        outcome->safety->verdict == SafetyVerdict::not_provably_safe) {
      api::RepairRequest request;
      request.spp = scenario.spp;
      followups.emplace_back(index, service.submit(std::move(request)));
    }
    outcomes[index] = std::move(outcome);
  };
  // Consume primaries as they become READY, not in slot order: a slow
  // early scenario must not delay later scenarios' repair follow-ups (the
  // old in-worker repair overlapped freely, and so does this). Outcomes
  // are slotted by index, so consumption order never touches the report.
  std::vector<char> consumed(work.size(), 0);
  std::size_t remaining = work.size();
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t slot = 0; slot < work.size(); ++slot) {
      if (consumed[slot] != 0 ||
          primary[slot].wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
        continue;
      }
      consume_primary(slot);
      consumed[slot] = 1;
      --remaining;
      progressed = true;
    }
    if (!progressed && remaining > 0) {
      // Nothing ready: block on the first outstanding primary instead of
      // spinning; any completion restarts the sweep.
      for (std::size_t slot = 0; slot < work.size(); ++slot) {
        if (consumed[slot] == 0) {
          primary[slot].wait();
          break;
        }
      }
    }
  }
  for (auto& [index, future] : followups) {
    const api::Response response = future.get();
    // A repair failure must not discard the safety verdict already in
    // hand; it is recorded on the summary instead.
    repair::RepairSummary summary;
    if (response.repair.has_value()) {
      summary = repair::summarize(*response.repair);
    } else {
      summary.attempted = true;
      summary.error = response.error;
    }
    auto patched = std::make_shared<ScenarioOutcome>(*outcomes[index]);
    patched->repair = std::move(summary);
    patched->wall_ms += response.wall_ms;
    outcomes[index] = std::move(patched);
  }

  // ------------------- sequential assembly: reattach duplicates, cache --
  for (const std::size_t index : work) {
    report.results[index].outcome = outcomes[index];
    report.total_wall_ms += outcomes[index]->wall_ms;
    if (options_.use_cache && outcomes[index]->error.empty()) {
      cache_.insert(keys[index], outcomes[index]);
    }
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (representative[i] != k_no_representative) {
      report.results[i].outcome = report.results[representative[i]].outcome;
    }
  }

  report.effort.sat_queries = counters.sat_queries.value() - floor.sat_queries;
  report.effort.sat_conflicts =
      counters.sat_conflicts.value() - floor.sat_conflicts;
  report.effort.sat_decisions =
      counters.sat_decisions.value() - floor.sat_decisions;
  report.effort.sat_propagations =
      counters.sat_propagations.value() - floor.sat_propagations;
  report.effort.smt_checks = counters.smt_checks.value() - floor.smt_checks;
  report.effort.repair_solver_checks =
      counters.repair_checks.value() - floor.repair_solver_checks;

  static obs::Counter& scenario_counter =
      obs::registry().counter("campaign.scenarios");
  static obs::Counter& solved_counter =
      obs::registry().counter("campaign.solved");
  static obs::Counter& dedup_counter =
      obs::registry().counter("campaign.deduplicated");
  static obs::Counter& cache_hit_counter =
      obs::registry().counter("campaign.cache_hits");
  scenario_counter.add(scenarios.size());
  solved_counter.add(report.solved_count);
  dedup_counter.add(report.deduplicated_count);
  cache_hit_counter.add(report.cache_hit_count);

  span.arg("solved", report.solved_count);
  span.arg("cache_hits", report.cache_hit_count);
  span.arg("deduplicated", report.deduplicated_count);
  span.arg("smt_checks", report.effort.smt_checks);
  span.arg("sat_conflicts", report.effort.sat_conflicts);
  return report;
}

}  // namespace fsr::campaign
