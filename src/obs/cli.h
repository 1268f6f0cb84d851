// Shared diagnostics flag plumbing for the fsr CLIs.
//
// fsr_serve, fsr_campaign, and fsr_repair all expose the same
// observability surface — --trace-out, --metrics-out,
// --metrics-interval-ms, --recorder, --crash-dump — and before this
// header each main() carried its own copy of the flag parsing, the usage
// text, and the install/finalize choreography (tracer before workers,
// recorder outliving the service, metrics written once at exit). Three
// drifting copies is how fsr_serve grew a --recorder knob the others
// lacked; this header is the one implementation all three share.
//
// Usage pattern in a main():
//
//   obs::DiagnosticsCliOptions diag;
//   for (int i = 1; i < argc; ++i) {
//     if (obs::consume_diagnostics_flag(argc, argv, i, "fsr_serve", diag))
//       continue;
//     ... tool-specific flags ...
//   }
//   obs::DiagnosticsSession session(diag, "fsr_serve");  // BEFORE the
//   ...                                   // service: workers cache ring
//   return session.finalize() && ok ? 0 : 1;  // pointers into the recorder
//
// The session installs on construction and uninstalls + writes outputs in
// finalize() (or its destructor); response/report bytes are never
// affected by any of it.
#ifndef FSR_OBS_CLI_H
#define FSR_OBS_CLI_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace fsr::obs {

struct DiagnosticsCliOptions {
  std::string trace_out;
  std::string metrics_out;
  std::string crash_dump;
  int metrics_interval_ms = 1000;
  /// Flight-recorder ring capacity per thread; 0 = no recorder — but
  /// --crash-dump without an explicit --recorder implies 1024 (a dump
  /// without history would be useless).
  std::size_t recorder_capacity = 0;
  bool recorder_set_explicitly = false;
};

/// True when argv[i] is one of the shared diagnostics flags (the value,
/// if any, is consumed and i advanced). Prints to stderr and exits 2 on a
/// missing or invalid value, exactly like the CLIs' own flag handling.
bool consume_diagnostics_flag(int argc, char** argv, int& i,
                              const char* program,
                              DiagnosticsCliOptions& options);

/// The value of flag `flag` (argv[i + 1], advancing i); a missing value
/// prints a usage message to stderr and exits 2.
const char* flag_value(int argc, char** argv, int& i, const char* program,
                       const char* flag);
/// flag_value parsed strictly by util::parse_int (>= min) or
/// util::parse_u64. Any trailing character, sign or out-of-range value
/// prints a usage message to stderr and exits 2 — every fsr CLI's integer
/// flags go through these two, so "--threads 4x" never runs 4 threads.
int int_flag_value(int argc, char** argv, int& i, const char* program,
                   const char* flag, int min);
std::uint64_t u64_flag_value(int argc, char** argv, int& i,
                             const char* program, const char* flag);
/// flag_value parsed strictly by util::parse_double: a finite number
/// >= 0, or a usage message on stderr and exit 2.
double nonnegative_flag_value(int argc, char** argv, int& i,
                              const char* program, const char* flag);

/// The usage text for the shared flags, ready to splice into a tool's
/// --help output (every line indented two spaces, trailing newline).
const char* diagnostics_usage();

/// RAII owner of the whole diagnostics stack: tracer, flight recorder,
/// crash handler, periodic metrics writer. Construct BEFORE the
/// AnalysisService (worker threads cache ring pointers into the recorder,
/// so it must outlive them — destruction order does the right thing when
/// this is declared first).
class DiagnosticsSession {
 public:
  DiagnosticsSession(DiagnosticsCliOptions options, const char* program);
  ~DiagnosticsSession();

  DiagnosticsSession(const DiagnosticsSession&) = delete;
  DiagnosticsSession& operator=(const DiagnosticsSession&) = delete;

  /// Uninstalls everything and writes the trace/metrics files. Returns
  /// false (after a stderr message) when any output file failed to write.
  /// Idempotent; the destructor calls it as a safety net.
  bool finalize();

 private:
  DiagnosticsCliOptions options_;
  std::string program_;
  Tracer tracer_;
  std::optional<FlightRecorder> recorder_;
  std::optional<MetricsFileWriter> metrics_writer_;
  bool finalized_ = false;
  bool ok_ = true;
};

}  // namespace fsr::obs

#endif  // FSR_OBS_CLI_H
