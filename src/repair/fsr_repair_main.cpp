// fsr_repair: counterexample-guided policy repair from the command line —
// a thin client of the fsr::api service façade.
//
//   fsr_repair --gadget bad --gadget disagree
//   fsr_repair --gadget ibgp-figure3 | jq '.[0].repaired'
//   fsr_repair --random 4 --seed 42 --max-edits 3 --table
//
// Each requested instance becomes one RepairRequest through an
// AnalysisService (src/api/service.h): minimal unsat core -> candidate
// edits -> incremental re-checks -> ground-truth validation, with warm
// solver sessions shared across requests per worker. Default output is
// the machine-readable JSON report array on stdout (deterministic fields
// only, byte-identical for any --threads); --table renders the human
// tables instead, timings included. Exit status: 0 on success, 1 when any
// repair failed internally, 2 on usage errors.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "api/service.h"
#include "groundtruth/engine.h"
#include "obs/cli.h"
#include "obs/trace.h"
#include "repair/repair_engine.h"
#include "spp/gadgets.h"
#include "spp/random_instance.h"
#include "util/error.h"

namespace {

void print_usage() {
  std::printf(
      "usage: fsr_repair [options]\n"
      "  --gadget NAME    repair a named gadget (repeatable); NAME is one\n"
      "                   of good, bad, disagree, ibgp-figure3,\n"
      "                   ibgp-figure3-fixed, good-chain-N, bad-chain-N\n"
      "  --random N       also repair N random fuzz instances\n"
      "  --seed S         seed for the --random fuzz instances (default 1)\n"
      "  --threads N      service worker threads (default 1); output is\n"
      "                   byte-identical for any value\n"
      "  --max-edits K    edit-size cap for candidates (default 2)\n"
      "  --beam W         frontier cap per search depth, pruned by\n"
      "                   unsat-core frequency (default 64; 0 = exhaustive\n"
      "                   breadth-first search)\n"
      "  --max-checks N   solver re-check budget per instance (default 512)\n"
      "  --no-relax       disable constraint-level relax edits\n"
      "  --ground-truth M ground-truth oracle: sat-search (default) |\n"
      "                   enumerate\n"
      "  --from-scratch   disable incremental solving (ablation)\n"
      "  --scratch-oracle re-encode every candidate's oracle query from\n"
      "                   scratch instead of the shared session (ablation)\n"
      "%s"
      "  --json           machine-readable JSON report array (the default)\n"
      "  --table          human-readable tables, timings included\n"
      "  --format F       compat alias: json | text\n"
      "  --list-gadgets   print known gadget names and exit\n"
      "  --help           this message\n",
      fsr::obs::diagnostics_usage());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsr::repair;

  fsr::api::ServiceOptions service_options;
  RepairOptions& options = service_options.repair;
  std::vector<std::string> gadgets;
  int random_count = 0;
  std::uint64_t seed = 1;
  std::string format = "json";
  fsr::obs::DiagnosticsCliOptions diagnostics;

  const auto need_value = [&](int& i, const char* flag) {
    return fsr::obs::flag_value(argc, argv, i, "fsr_repair", flag);
  };
  const auto int_value = [&](int& i, const char* flag, int min) {
    return fsr::obs::int_flag_value(argc, argv, i, "fsr_repair", flag, min);
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (fsr::obs::consume_diagnostics_flag(argc, argv, i, "fsr_repair",
                                           diagnostics)) {
      continue;
    }
    if (std::strcmp(arg, "--gadget") == 0) {
      gadgets.emplace_back(need_value(i, "--gadget"));
    } else if (std::strcmp(arg, "--random") == 0) {
      random_count = int_value(i, "--random", 0);
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = fsr::obs::u64_flag_value(argc, argv, i, "fsr_repair", "--seed");
    } else if (std::strcmp(arg, "--threads") == 0) {
      service_options.threads = int_value(i, "--threads", 1);
    } else if (std::strcmp(arg, "--max-edits") == 0) {
      options.max_edits =
          static_cast<std::size_t>(int_value(i, "--max-edits", 1));
    } else if (std::strcmp(arg, "--beam") == 0) {
      options.beam_width = static_cast<std::size_t>(int_value(i, "--beam", 0));
    } else if (std::strcmp(arg, "--max-checks") == 0) {
      options.max_checks =
          static_cast<std::size_t>(int_value(i, "--max-checks", 1));
    } else if (std::strcmp(arg, "--no-relax") == 0) {
      options.allow_relax = false;
    } else if (std::optional<fsr::groundtruth::Mode> mode;
               fsr::groundtruth::consume_mode_flag(argc, argv, i, mode)) {
      if (!mode.has_value()) {
        std::fprintf(stderr,
                     "fsr_repair: --ground-truth needs a mode "
                     "(enumerate | sat-search)\n");
        return 2;
      }
      options.ground_truth = *mode;
    } else if (std::strcmp(arg, "--from-scratch") == 0) {
      options.use_incremental = false;
    } else if (std::strcmp(arg, "--scratch-oracle") == 0) {
      options.use_incremental_oracle = false;
    } else if (std::strcmp(arg, "--json") == 0) {
      format = "json";
    } else if (std::strcmp(arg, "--table") == 0) {
      format = "text";
    } else if (std::strcmp(arg, "--format") == 0) {
      format = need_value(i, "--format");
    } else if (std::strcmp(arg, "--list-gadgets") == 0) {
      for (const std::string& name : fsr::spp::gadget_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (std::strcmp(arg, "--help") == 0) {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "fsr_repair: unknown option '%s'\n", arg);
      print_usage();
      return 2;
    }
  }

  if (format != "text" && format != "json") {
    std::fprintf(stderr, "fsr_repair: unknown format '%s'\n", format.c_str());
    return 2;
  }
  if (gadgets.empty() && random_count == 0) {
    gadgets = {"bad", "disagree", "ibgp-figure3"};
  }

  fsr::obs::set_thread_name("main");
  // Shared diagnostics stack (obs/cli.h): constructed before the service
  // so the recorder outlives every worker thread.
  fsr::obs::DiagnosticsSession diagnostics_session(diagnostics, "fsr_repair");
  try {
    std::vector<fsr::spp::SppInstance> instances;
    for (const std::string& name : gadgets) {
      instances.push_back(fsr::spp::gadget_by_name(name));
    }
    fsr::spp::RandomSppSweep sweep;
    for (int i = 0; i < random_count; ++i) {
      instances.push_back(fsr::spp::random_spp_instance(
          "fuzz-" + std::to_string(i), seed + static_cast<std::uint64_t>(i),
          sweep));
    }

    fsr::api::AnalysisService service(service_options);
    std::vector<std::future<fsr::api::Response>> futures;
    futures.reserve(instances.size());
    for (fsr::spp::SppInstance& instance : instances) {
      fsr::api::RepairRequest request;
      request.spp = std::make_shared<const fsr::spp::SppInstance>(
          std::move(instance));
      futures.push_back(service.submit(std::move(request)));
    }

    bool first = true;
    bool any_error = false;
    if (format == "json") std::printf("[\n");
    for (std::future<fsr::api::Response>& future : futures) {
      const fsr::api::Response response = future.get();
      if (!response.error.empty()) {
        std::fprintf(stderr, "fsr_repair: %s\n", response.error.c_str());
        any_error = true;
        continue;
      }
      if (format == "json") {
        if (!first) std::printf(",\n");
        std::fputs(to_json(*response.repair).c_str(), stdout);
      } else {
        if (!first) std::printf("\n");
        std::fputs(render_text(*response.repair).c_str(), stdout);
      }
      first = false;
    }
    if (format == "json") std::printf("]\n");
    // Every future resolved above, so all spans are recorded.
    if (!diagnostics_session.finalize()) return 1;
    if (any_error) return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fsr_repair: %s\n", error.what());
    return 1;
  }
  return 0;
}
