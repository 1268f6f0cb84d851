// Parallel campaign execution.
//
// The CampaignRunner expands scenario sources, deduplicates scenarios by
// canonical content (and consults its persistent ResultCache), then
// dispatches the remaining unique work through the fsr::api service façade
// (api/service.h): one AnalysisService per run owns the worker pool, and
// each service worker owns its solver sessions — the
// one-solver-session-per-worker invariant the runner used to enforce with
// hand-rolled threads now lives behind the API (see the
// thread-compatibility notes in fsr/safety_analyzer.h and smt/context.h).
//
// Scheduling streams: run() generates sources in order and submits each
// source's unique scenarios as soon as they are keyed, so workers solve
// while later sources are still being generated, and repair follow-ups
// leave from the worker that answered the primary.
//
// Determinism contract: every scenario's outcome is a pure function of its
// content and derived seed; keying, duplicate and cache bookkeeping happen
// on the calling thread in scenario order; and results are reassembled
// (and cached) in scenario order once the last one is in — so the
// report's deterministic fields (everything except wall-clock timings)
// are byte-identical for any thread count and any completion order.
#ifndef FSR_CAMPAIGN_RUNNER_H
#define FSR_CAMPAIGN_RUNNER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "campaign/cache.h"
#include "campaign/report.h"
#include "campaign/scenario.h"
#include "campaign/scenario_source.h"
#include "fsr/emulation.h"
#include "fsr/safety_analyzer.h"

namespace fsr::campaign {

struct CampaignOptions {
  std::uint64_t seed = 1;
  int threads = 1;  // clamped to [1, scenario count]
  /// Consult/fill the persistent cross-run cache. In-run deduplication is
  /// always on.
  bool use_cache = true;
  /// Non-empty: back the result cache with this directory, reloading
  /// prior runs' outcomes at startup and persisting new ones (see
  /// campaign/cache.h). Warm runs render byte-identical reports to the
  /// cold runs that filled the directory.
  std::string cache_dir;
  /// Non-zero: cap the disk cache at this many bytes, evicting the
  /// least recently accessed records on overflow (fsr_campaign
  /// --cache-max-bytes; see ResultCache).
  std::uint64_t cache_max_bytes = 0;
  /// Base emulation options; each scenario overrides `.seed` with its own.
  EmulationOptions emulation;
  /// Base event-driven simulation options; each simulation scenario
  /// overrides `.seed` with its own (the churn scenario and step cap come
  /// from here, so a whole campaign simulates under one regime).
  sim::SimOptions sim;
  /// Run the repair engine on every not-provably-safe SPP safety scenario
  /// (fsr_campaign --repair). Repair is a follow-up RepairRequest through
  /// the same AnalysisService; the service worker that answers it owns the
  /// solver sessions.
  bool attempt_repair = false;
  repair::RepairOptions repair;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  /// Expands sources in order into a scenario list (sequential and
  /// deterministic; ids are prefixed by source names) — the scenarios
  /// run() schedules, in the same order.
  std::vector<Scenario> generate(
      const std::vector<std::unique_ptr<ScenarioSource>>& sources) const;

  /// Generates and schedules in one stream (see the header comment).
  CampaignReport run(
      const std::vector<std::unique_ptr<ScenarioSource>>& sources);
  /// Schedules an already-generated list through the same path.
  CampaignReport run_scenarios(std::vector<Scenario> scenarios);

  const CampaignOptions& options() const noexcept { return options_; }
  ResultCache& cache() noexcept { return cache_; }

 private:
  CampaignOptions options_;
  ResultCache cache_;  // disk-backed when options_.cache_dir is set
};

}  // namespace fsr::campaign

#endif  // FSR_CAMPAIGN_RUNNER_H
