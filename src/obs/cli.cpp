#include "obs/cli.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/strings.h"

namespace fsr::obs {

namespace {

[[noreturn]] void bad_integer(const char* program, const char* flag, int min,
                              const char* value) {
  std::fprintf(stderr, "%s: %s needs an integer >= %d, not '%s'\n", program,
               flag, min, value);
  std::exit(2);
}

}  // namespace

const char* flag_value(int argc, char** argv, int& i, const char* program,
                       const char* flag) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s: %s requires a value\n", program, flag);
    std::exit(2);
  }
  return argv[++i];
}

int int_flag_value(int argc, char** argv, int& i, const char* program,
                   const char* flag, int min) {
  const char* text = flag_value(argc, argv, i, program, flag);
  const std::optional<int> value = util::parse_int(text, min);
  if (!value.has_value()) bad_integer(program, flag, min, text);
  return *value;
}

std::uint64_t u64_flag_value(int argc, char** argv, int& i,
                             const char* program, const char* flag) {
  const char* text = flag_value(argc, argv, i, program, flag);
  const std::optional<std::uint64_t> value = util::parse_u64(text);
  if (!value.has_value()) bad_integer(program, flag, 0, text);
  return *value;
}

double nonnegative_flag_value(int argc, char** argv, int& i,
                              const char* program, const char* flag) {
  const char* text = flag_value(argc, argv, i, program, flag);
  const std::optional<double> value = util::parse_double(text);
  if (!value.has_value()) {
    std::fprintf(stderr, "%s: %s needs a number >= 0, not '%s'\n", program,
                 flag, text);
    std::exit(2);
  }
  return *value;
}

bool consume_diagnostics_flag(int argc, char** argv, int& i,
                              const char* program,
                              DiagnosticsCliOptions& options) {
  const char* arg = argv[i];
  if (std::strcmp(arg, "--trace-out") == 0) {
    options.trace_out = flag_value(argc, argv, i, program, "--trace-out");
  } else if (std::strcmp(arg, "--metrics-out") == 0) {
    options.metrics_out = flag_value(argc, argv, i, program, "--metrics-out");
  } else if (std::strcmp(arg, "--metrics-interval-ms") == 0) {
    options.metrics_interval_ms =
        int_flag_value(argc, argv, i, program, "--metrics-interval-ms", 1);
  } else if (std::strcmp(arg, "--recorder") == 0) {
    options.recorder_capacity = static_cast<std::size_t>(
        int_flag_value(argc, argv, i, program, "--recorder", 0));
    options.recorder_set_explicitly = true;
  } else if (std::strcmp(arg, "--crash-dump") == 0) {
    options.crash_dump = flag_value(argc, argv, i, program, "--crash-dump");
  } else {
    return false;
  }
  return true;
}

const char* diagnostics_usage() {
  return
      "  --trace-out FILE   write a Chrome trace_event JSON of the run\n"
      "                     (load in about:tracing or ui.perfetto.dev);\n"
      "                     output bytes are unaffected\n"
      "  --metrics-out FILE rewrite FILE atomically with an OpenMetrics\n"
      "                     snapshot of the obs registry, every\n"
      "                     --metrics-interval-ms (default 1000) and once\n"
      "                     at exit; scrape-ready, bytes unaffected\n"
      "  --metrics-interval-ms N\n"
      "                     snapshot period for --metrics-out\n"
      "  --recorder N       install a flight recorder keeping the last N\n"
      "                     events per thread (fsr_serve drains it via the\n"
      "                     \"debug\" request kind; 0 = off, the default)\n"
      "  --crash-dump FILE  dump recorder events + a registry snapshot to\n"
      "                     FILE on SIGSEGV/SIGABRT (then die) and on\n"
      "                     SIGUSR1 (on demand, keep serving); implies\n"
      "                     --recorder 1024 unless set explicitly\n";
}

DiagnosticsSession::DiagnosticsSession(DiagnosticsCliOptions options,
                                       const char* program)
    : options_(std::move(options)), program_(program) {
  if (!options_.trace_out.empty()) install_tracer(&tracer_);
  std::size_t capacity = options_.recorder_capacity;
  if (!options_.crash_dump.empty() && !options_.recorder_set_explicitly &&
      capacity == 0) {
    capacity = 1024;  // a crash dump without history would be useless
  }
  if (capacity > 0) {
    recorder_.emplace(capacity);
    install_recorder(&*recorder_);
  }
  if (!options_.crash_dump.empty()) install_crash_handler(options_.crash_dump);
  if (!options_.metrics_out.empty()) {
    metrics_writer_.emplace(MetricsFileWriter::Options{
        options_.metrics_out,
        std::chrono::milliseconds(options_.metrics_interval_ms)});
  }
}

DiagnosticsSession::~DiagnosticsSession() { finalize(); }

bool DiagnosticsSession::finalize() {
  if (finalized_) return ok_;
  finalized_ = true;
  if (recorder_.has_value()) install_recorder(nullptr);
  if (metrics_writer_.has_value()) {
    metrics_writer_->stop();
    if (!metrics_writer_->ok()) {
      std::fprintf(stderr, "%s: cannot write metrics to '%s'\n",
                   program_.c_str(), options_.metrics_out.c_str());
      ok_ = false;
    }
  }
  if (!options_.trace_out.empty()) {
    install_tracer(nullptr);
    if (!tracer_.write(options_.trace_out)) {
      std::fprintf(stderr, "%s: cannot write trace to '%s'\n",
                   program_.c_str(), options_.trace_out.c_str());
      ok_ = false;
    }
  }
  return ok_;
}

}  // namespace fsr::obs
