#include "campaign/runner.h"

#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "api/service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

/// Expands `sources` in order, handing each source's batch to `sink` as
/// soon as it exists. The running ordinal feeds seed derivation, so every
/// entry point sees the same scenarios.
template <typename Sink>
void expand(const std::vector<std::unique_ptr<ScenarioSource>>& sources,
            std::uint64_t campaign_seed, Sink&& sink) {
  std::uint64_t generated = 0;
  for (const auto& source : sources) {
    std::vector<Scenario> batch = source->generate(campaign_seed, generated);
    generated += batch.size();
    sink(std::move(batch));
  }
}

/// One campaign run. Scenarios arrive in index order, a batch at a time;
/// add() keys, deduplicates and consults the cache for each one on the
/// calling thread — the bookkeeping that decides the report's
/// deterministic fields — and submits each unique scenario as soon as it
/// is keyed, so the workers solve while later sources are still being
/// generated. Primaries and repair follow-ups complete through service
/// callbacks that slot each outcome by index; finish() waits for the last
/// one, then assembles the report and fills the cache in index order.
/// Completion order therefore never touches the bytes.
class Schedule {
 public:
  Schedule(const CampaignOptions& options, ResultCache& cache)
      : options_(options), cache_(cache), service_(service_options(options)) {
    report_.campaign_seed = options_.seed;
    report_.threads = options_.threads;
  }

  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  /// An early exit (a malformed scenario, a throwing source) still lets
  /// every submitted request and its follow-up finish before the service
  /// and the state its callbacks write go away.
  ~Schedule() { wait_idle(); }

  void add(std::vector<Scenario> batch) {
    for (const Scenario& scenario : batch) {
      const std::size_t i = report_.results.size();
      ScenarioResult& result = report_.results.emplace_back();
      result.id = scenario.id;
      result.source = scenario.source;
      result.kind = scenario.kind;
      result.seed = scenario.seed;
      validate_scenario(scenario);
      // Compiled once: the key reuses the primary's canonical text, and a
      // unique scenario submits the same compiled request.
      api::CompiledRequest primary =
          api::compile(primary_request(scenario, options_));
      std::string& key = keys_.emplace_back(
          scenario_cache_key(scenario, primary, options_.attempt_repair,
                             options_.repair, options_.sim));
      result.content_id = util::content_digest(key);
      representative_.push_back(k_no_representative);

      const auto [it, inserted] = first_with_key_.emplace(key, i);
      if (!inserted) {
        result.deduplicated = true;
        representative_[i] = it->second;
        ++report_.deduplicated_count;
        continue;
      }
      if (options_.use_cache) {
        if (auto cached = cache_.find(key)) {
          result.cache_hit = true;
          result.outcome = std::move(cached);
          ++report_.cache_hit_count;
          continue;
        }
      }
      work_.push_back(i);
      submit_primary(i, scenario, std::move(primary));
    }
  }

  CampaignReport finish() {
    wait_idle();
    if (error_ != nullptr) std::rethrow_exception(error_);
    // Sequential assembly: reattach duplicates, fill the cache.
    report_.solved_count = work_.size();
    for (const std::size_t index : work_) {
      report_.results[index].outcome = outcomes_[index];
      report_.total_wall_ms += outcomes_[index]->wall_ms;
      if (options_.use_cache && outcomes_[index]->error.empty()) {
        cache_.insert(keys_[index], outcomes_[index]);
      }
    }
    for (std::size_t i = 0; i < report_.results.size(); ++i) {
      if (representative_[i] != k_no_representative) {
        report_.results[i].outcome =
            report_.results[representative_[i]].outcome;
      }
    }

    const SolverEffort now = effort_now();
    SolverEffort& effort = report_.effort;
    effort.sat_queries = now.sat_queries - floor_.sat_queries;
    effort.sat_conflicts = now.sat_conflicts - floor_.sat_conflicts;
    effort.sat_decisions = now.sat_decisions - floor_.sat_decisions;
    effort.sat_propagations = now.sat_propagations - floor_.sat_propagations;
    effort.smt_checks = now.smt_checks - floor_.smt_checks;
    effort.repair_solver_checks =
        now.repair_solver_checks - floor_.repair_solver_checks;

    static obs::Counter& scenario_counter =
        obs::registry().counter("campaign.scenarios");
    static obs::Counter& solved_counter =
        obs::registry().counter("campaign.solved");
    static obs::Counter& dedup_counter =
        obs::registry().counter("campaign.deduplicated");
    static obs::Counter& cache_hit_counter =
        obs::registry().counter("campaign.cache_hits");
    scenario_counter.add(report_.results.size());
    solved_counter.add(report_.solved_count);
    dedup_counter.add(report_.deduplicated_count);
    cache_hit_counter.add(report_.cache_hit_count);

    span_.arg("scenarios", report_.results.size());
    span_.arg("solved", report_.solved_count);
    span_.arg("cache_hits", report_.cache_hit_count);
    span_.arg("deduplicated", report_.deduplicated_count);
    span_.arg("smt_checks", report_.effort.smt_checks);
    span_.arg("sat_conflicts", report_.effort.sat_conflicts);
    return std::move(report_);
  }

 private:
  static constexpr std::size_t k_no_representative =
      std::numeric_limits<std::size_t>::max();

  static SolverEffort effort_now() {
    static obs::Counter& sat_queries = obs::registry().counter("sat.queries");
    static obs::Counter& sat_conflicts =
        obs::registry().counter("sat.conflicts");
    static obs::Counter& sat_decisions =
        obs::registry().counter("sat.decisions");
    static obs::Counter& sat_propagations =
        obs::registry().counter("sat.propagations");
    static obs::Counter& smt_checks = obs::registry().counter("smt.checks");
    static obs::Counter& repair_checks =
        obs::registry().counter("repair.solver_checks");
    SolverEffort effort;
    effort.sat_queries = sat_queries.value();
    effort.sat_conflicts = sat_conflicts.value();
    effort.sat_decisions = sat_decisions.value();
    effort.sat_propagations = sat_propagations.value();
    effort.smt_checks = smt_checks.value();
    effort.repair_solver_checks = repair_checks.value();
    return effort;
  }

  /// Submits the scenario's primary request. Its callback runs on a
  /// service worker: every not-provably-safe SPP safety scenario of a
  /// repair campaign gets a follow-up repair request from there, so a slow
  /// scenario never holds back another's repair. Repair outcomes (like
  /// safety verdicts) are a pure function of content, so the cache/dedup
  /// machinery keeps collapsing duplicates.
  void submit_primary(std::size_t index, const Scenario& scenario,
                      api::CompiledRequest primary) {
    std::shared_ptr<const spp::SppInstance> repairable;
    if (options_.attempt_repair && scenario.kind == ScenarioKind::safety) {
      repairable = scenario.spp;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++pending_;
      outcomes_.resize(index + 1);
    }
    try {
      service_.submit(
          std::move(primary),
          [this, index, repairable](api::Response response) {
            guarded([&] { on_primary(index, repairable, response); });
          });
    } catch (...) {
      settle(index, nullptr, std::current_exception());
      throw;
    }
  }

  void on_primary(std::size_t index,
                  const std::shared_ptr<const spp::SppInstance>& repairable,
                  const api::Response& response) {
    auto outcome = std::make_shared<ScenarioOutcome>();
    outcome->error = response.error;
    outcome->wall_ms = response.wall_ms;
    if (response.safety.has_value()) outcome->safety = response.safety;
    if (response.emulation.has_value()) outcome->emulation = response.emulation;
    if (response.sim.has_value()) outcome->sim = response.sim;
    if (repairable == nullptr || !response.error.empty() ||
        !outcome->safety.has_value() ||
        outcome->safety->verdict != SafetyVerdict::not_provably_safe) {
      settle(index, std::move(outcome));
      return;
    }
    api::RepairRequest request;
    request.spp = repairable;
    service_.submit(std::move(request),
                    [this, index, outcome](api::Response repaired) {
                      guarded([&] {
                        attach_repair(*outcome, repaired);
                        settle(index, outcome);
                      });
                    });
  }

  /// Runs a completion callback's body on a service worker. An exception
  /// must not escape into the worker's loop: it settles the scenario and
  /// finish() rethrows it on the calling thread.
  template <typename Body>
  void guarded(Body&& body) noexcept {
    try {
      body();
    } catch (...) {
      settle(0, nullptr, std::current_exception());
    }
  }

  /// A repair failure must not discard the safety verdict already in
  /// hand; it is recorded on the summary instead.
  static void attach_repair(ScenarioOutcome& outcome,
                            const api::Response& response) {
    repair::RepairSummary summary;
    if (response.repair.has_value()) {
      summary = repair::summarize(*response.repair);
    } else {
      summary.attempted = true;
      summary.error = response.error;
    }
    outcome.repair = std::move(summary);
    outcome.wall_ms += response.wall_ms;
  }

  /// Marks one submitted scenario done: with its outcome, or with the
  /// first error that stopped it.
  void settle(std::size_t index, std::shared_ptr<const ScenarioOutcome> outcome,
              std::exception_ptr error = nullptr) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error != nullptr) {
      if (error_ == nullptr) error_ = error;
    } else {
      outcomes_[index] = std::move(outcome);
    }
    --pending_;
    idle_.notify_all();
  }

  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this]() { return pending_ == 0; });
  }

  obs::Span span_{"campaign.run"};
  const CampaignOptions& options_;
  ResultCache& cache_;
  // Solver-effort provenance: registry deltas around the whole run, read
  // before the first submit. The registry is process-global, so a campaign
  // sharing its process with other concurrent work would fold that work
  // in — the CLIs run one campaign per process, which is the supported
  // reading.
  SolverEffort floor_ = effort_now();
  CampaignReport report_;
  // Scheduling-thread state, indexed by scenario.
  std::vector<std::string> keys_;
  std::vector<std::size_t> representative_;
  std::unordered_map<std::string, std::size_t> first_with_key_;
  std::vector<std::size_t> work_;
  // Completion state, shared with the service callbacks under mutex_.
  std::mutex mutex_;
  std::condition_variable idle_;
  std::size_t pending_ = 0;
  std::vector<std::shared_ptr<const ScenarioOutcome>> outcomes_;
  std::exception_ptr error_;
  // Last member: destroyed first, joining the workers while the state
  // their callbacks write is still alive.
  api::AnalysisService service_;
};

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
  expand(sources, options_.seed, [&scenarios](std::vector<Scenario> batch) {
    for (Scenario& scenario : batch) scenarios.push_back(std::move(scenario));
  });
  return scenarios;
}

CampaignReport CampaignRunner::run(
    const std::vector<std::unique_ptr<ScenarioSource>>& sources) {
  Schedule schedule(options_, cache_);
  expand(sources, options_.seed, [&schedule](std::vector<Scenario> batch) {
    schedule.add(std::move(batch));
  });
  return schedule.finish();
}

CampaignReport CampaignRunner::run_scenarios(std::vector<Scenario> scenarios) {
  Schedule schedule(options_, cache_);
  schedule.add(std::move(scenarios));
  return schedule.finish();
}

}  // namespace fsr::campaign
