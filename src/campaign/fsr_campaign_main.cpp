// fsr_campaign: run scenario campaigns from the command line.
//
//   fsr_campaign --source gadgets --source rocketfuel --threads 4
//   fsr_campaign --source all --emulate --format table --timings
//
// Default output is deterministic JSON on stdout: for a fixed campaign
// seed the bytes are identical for any --threads value (see
// campaign/report.h). --timings adds wall-clock data and breaks that
// property on purpose.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "groundtruth/engine.h"
#include "sim/simulator.h"
#include "obs/cli.h"
#include "obs/trace.h"
#include "util/error.h"

namespace {

void print_usage() {
  std::printf(
      "usage: fsr_campaign [options]\n"
      "  --source NAME    scenario source (repeatable); NAME is one of\n"
      "                   gadgets, rocketfuel, as-hierarchy, random-spp,\n"
      "                   policies, repair-targets, or 'all' (default: all)\n"
      "  --threads N      worker threads (default 1)\n"
      "  --seed S         campaign seed (default 1)\n"
      "  --format F       json | table (default json)\n"
      "  --timings        include wall-clock data (JSON output is then no\n"
      "                   longer byte-stable across runs)\n"
      "  --emulate        add emulation variants to the gadget source\n"
      "  --simulate       add event-driven simulation variants to the\n"
      "                   gadget, rocketfuel, and as-hierarchy sources\n"
      "                   (incl. the unsafe gadgets, whose runs report\n"
      "                   oscillation; topology sources simulate their\n"
      "                   extracted SPP instances)\n"
      "  --sim-scenario S churn scenario for simulation variants: steady\n"
      "                   (default) | staged | link-flap | session-reset\n"
      "  --sim-suppression P  advertisement-suppression policy for\n"
      "                   simulation variants: none (default) |\n"
      "                   split-horizon | poisoned-reverse\n"
      "  --hierarchy-depth N  override the as-hierarchy source's depth\n"
      "                   sweep with N (repeatable; larger depths grow the\n"
      "                   topology geometrically)\n"
      "  --repair         run the repair engine on every not-provably-safe\n"
      "                   SPP scenario; adds repair data to the report\n"
      "  --repair-max-edits K  edit-size cap for repair candidates "
      "(default 2)\n"
      "  --ground-truth M ground-truth oracle for repair validation:\n"
      "                   sat-search (default; conflict-driven, exact far\n"
      "                   beyond the enumeration cap) | enumerate\n"
      "  --no-cache       disable the cross-run result cache\n"
      "  --cache-dir DIR  persist the result cache under DIR and reload it\n"
      "                   at startup (warm runs skip solved scenarios and\n"
      "                   render byte-identical JSON)\n"
      "  --cache-max-bytes N  cap the disk cache at N bytes, evicting the\n"
      "                   least recently accessed records on overflow\n"
      "%s"
      "  --list-sources   print available sources and exit\n"
      "  --help           this message\n"
      "exit status: 0 on success, 1 on fatal errors, 2 on usage errors,\n"
      "3 when any scenario failed internally (its error is in the report)\n",
      fsr::obs::diagnostics_usage());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsr::campaign;

  CampaignOptions options;
  std::vector<std::string> source_names;
  std::string format = "json";
  fsr::obs::DiagnosticsCliOptions diagnostics;
  bool timings = false;
  bool emulate = false;
  bool simulate = false;
  std::vector<std::int32_t> hierarchy_depths;

  const auto need_value = [&](int& i, const char* flag) {
    return fsr::obs::flag_value(argc, argv, i, "fsr_campaign", flag);
  };
  const auto int_value = [&](int& i, const char* flag, int min) {
    return fsr::obs::int_flag_value(argc, argv, i, "fsr_campaign", flag, min);
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (fsr::obs::consume_diagnostics_flag(argc, argv, i, "fsr_campaign",
                                           diagnostics)) {
      continue;
    }
    if (std::strcmp(arg, "--source") == 0) {
      source_names.emplace_back(need_value(i, "--source"));
    } else if (std::strcmp(arg, "--threads") == 0) {
      options.threads = int_value(i, "--threads", 1);
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed =
          fsr::obs::u64_flag_value(argc, argv, i, "fsr_campaign", "--seed");
    } else if (std::strcmp(arg, "--format") == 0) {
      format = need_value(i, "--format");
    } else if (std::strcmp(arg, "--timings") == 0) {
      timings = true;
    } else if (std::strcmp(arg, "--emulate") == 0) {
      emulate = true;
    } else if (std::strcmp(arg, "--simulate") == 0) {
      simulate = true;
    } else if (std::strcmp(arg, "--sim-scenario") == 0) {
      options.sim.scenario = need_value(i, "--sim-scenario");
      if (!fsr::sim::is_scenario_name(options.sim.scenario)) {
        std::fprintf(stderr,
                     "fsr_campaign: --sim-scenario wants steady, staged, "
                     "link-flap, or session-reset\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--sim-suppression") == 0) {
      options.sim.suppression = need_value(i, "--sim-suppression");
      if (!fsr::sim::is_suppression_name(options.sim.suppression)) {
        std::fprintf(stderr,
                     "fsr_campaign: --sim-suppression wants none, "
                     "split-horizon, or poisoned-reverse\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--hierarchy-depth") == 0) {
      hierarchy_depths.push_back(int_value(i, "--hierarchy-depth", 1));
    } else if (std::strcmp(arg, "--repair") == 0) {
      options.attempt_repair = true;
    } else if (std::strcmp(arg, "--repair-max-edits") == 0) {
      options.repair.max_edits =
          static_cast<std::size_t>(int_value(i, "--repair-max-edits", 1));
    } else if (std::optional<fsr::groundtruth::Mode> mode;
               fsr::groundtruth::consume_mode_flag(argc, argv, i, mode)) {
      if (!mode.has_value()) {
        std::fprintf(stderr,
                     "fsr_campaign: --ground-truth needs a mode "
                     "(enumerate | sat-search)\n");
        return 2;
      }
      options.repair.ground_truth = *mode;
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      options.use_cache = false;
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      options.cache_dir = need_value(i, "--cache-dir");
    } else if (std::strcmp(arg, "--cache-max-bytes") == 0) {
      options.cache_max_bytes = fsr::obs::u64_flag_value(
          argc, argv, i, "fsr_campaign", "--cache-max-bytes");
    } else if (std::strcmp(arg, "--list-sources") == 0) {
      for (const std::string& name : builtin_source_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (std::strcmp(arg, "--help") == 0) {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "fsr_campaign: unknown option '%s'\n", arg);
      print_usage();
      return 2;
    }
  }

  if (format != "json" && format != "table") {
    std::fprintf(stderr, "fsr_campaign: unknown format '%s'\n", format.c_str());
    return 2;
  }
  if (source_names.empty() ||
      (source_names.size() == 1 && source_names[0] == "all")) {
    source_names = builtin_source_names();
  }

  fsr::obs::set_thread_name("main");
  // Shared diagnostics stack (obs/cli.h): constructed before the runner's
  // service so the recorder outlives every worker thread.
  fsr::obs::DiagnosticsSession diagnostics_session(diagnostics,
                                                   "fsr_campaign");
  try {
    std::vector<std::unique_ptr<ScenarioSource>> sources;
    sources.reserve(source_names.size());
    for (const std::string& name : source_names) {
      sources.push_back(
          make_builtin_source(name, emulate, simulate, hierarchy_depths));
    }

    CampaignRunner runner(options);
    const CampaignReport report = runner.run(sources);
    // The runner's service (and its span-recording workers) is gone once
    // run() returns; write the diagnostics outputs before rendering so a
    // render error cannot lose them.
    if (!diagnostics_session.finalize()) return 1;

    if (format == "table") {
      std::fputs(render_table(report).c_str(), stdout);
    } else {
      JsonOptions json_options;
      json_options.include_timings = timings;
      std::fputs(to_json(report, json_options).c_str(), stdout);
    }

    // Internal scenario failures are recorded in the report (a failed
    // scenario never aborts the campaign), but the process must not claim
    // success: pipelines watch the exit status, not every error field.
    for (const ScenarioResult& result : report.results) {
      if (result.outcome != nullptr && !result.outcome->error.empty()) {
        std::fprintf(stderr, "fsr_campaign: scenario '%s' failed: %s\n",
                     result.id.c_str(), result.outcome->error.c_str());
        return 3;
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fsr_campaign: %s\n", error.what());
    return 1;
  }
  return 0;
}
