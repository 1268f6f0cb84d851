// Campaign-engine scaling: scenarios/sec of a mixed safety workload at
// 1, 2, 4, and hardware-concurrency worker threads. The workload mixes
// the heavy Rocketfuel extractions with gadget and fuzz scenarios, with
// the result cache disabled so every thread count solves identical work.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "campaign/runner.h"

namespace {

using namespace fsr::campaign;

std::vector<std::unique_ptr<ScenarioSource>> workload() {
  std::vector<std::unique_ptr<ScenarioSource>> sources;
  sources.push_back(gadget_source());
  RocketfuelSweep rocketfuel;
  rocketfuel.seeds = {1, 2, 3, 4};
  sources.push_back(rocketfuel_source(std::move(rocketfuel)));
  fsr::spp::RandomSppSweep random_sweep;
  random_sweep.count = 16;
  random_sweep.max_nodes = 7;
  sources.push_back(random_spp_source(random_sweep));
  return sources;
}

}  // namespace

int main() {
  fsr::bench::print_banner("campaign scaling: scenarios/sec by worker count");

  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> thread_counts = {1, 2, 4};
  if (hardware != 1 && hardware != 2 && hardware != 4) {
    thread_counts.push_back(static_cast<int>(hardware));
  }
  std::printf("hardware concurrency: %u\n\n", hardware);

  fsr::bench::print_row({"threads", "scenarios", "solved", "wall ms",
                         "scenarios/sec", "speedup"});
  double baseline_ms = 0.0;
  for (const int threads : thread_counts) {
    CampaignOptions options;
    options.threads = threads;
    options.use_cache = false;  // identical solve work for every row
    CampaignRunner runner(options);
    const std::vector<Scenario> scenarios = runner.generate(workload());

    const auto start = std::chrono::steady_clock::now();
    const CampaignReport report = runner.run_scenarios(scenarios);
    const auto stop = std::chrono::steady_clock::now();
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (baseline_ms == 0.0) baseline_ms = elapsed_ms;

    char wall[32], rate[32], speedup[32];
    std::snprintf(wall, sizeof(wall), "%.1f", elapsed_ms);
    std::snprintf(rate, sizeof(rate), "%.1f",
                  1000.0 * static_cast<double>(report.solved_count) /
                      elapsed_ms);
    std::snprintf(speedup, sizeof(speedup), "%.2fx", baseline_ms / elapsed_ms);
    fsr::bench::print_row({std::to_string(threads),
                           std::to_string(report.results.size()),
                           std::to_string(report.solved_count), wall, rate,
                           speedup});
  }
  return 0;
}
