// Structured span tracing: scoped RAII spans that record where a request
// spent its time, exported as Chrome trace_event JSON (loadable in
// about:tracing and https://ui.perfetto.dev).
//
// Zero-overhead-when-off contract: no tracer is installed by default, and
// Span's constructor then costs ONE relaxed atomic load (the global tracer
// pointer) — no clock read, no allocation, no lock. Tracing is enabled by
// the CLIs' --trace-out flag, which installs a process-wide Tracer for the
// run and writes the JSON on exit.
//
// Determinism contract: spans observe, never steer. All deterministic
// outputs are byte-identical with tracing on or off — traces go to their
// own file, and nothing reads trace state back into analysis.
//
// Nesting: Chrome's "X" (complete) events imply parent/child structure by
// timestamp containment per thread — a span enclosing another span's
// lifetime on the same thread renders as its parent. RAII scoping makes
// that automatic; spans must therefore end in reverse order of start on
// each thread (guaranteed by scoping, asserted by the CI trace validator).
//
// Usage:
//   obs::Span span("repair.run");
//   span.arg("instance", instance.name);   // string arg
//   ...
//   span.arg("solver_checks", checks);     // numeric arg, attached counters
#ifndef FSR_OBS_TRACE_H
#define FSR_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fsr::obs {

/// One recorded trace event. args values are pre-rendered JSON scalars
/// (quoted strings or bare numbers). `phase` selects the Chrome
/// trace_event type: "X" complete spans (the default), "C" counter
/// samples (args carry the sampled series values), "i" thread-scoped
/// instants (point markers like solver restarts).
struct TraceEvent {
  std::string name;
  char phase = 'X';
  std::uint32_t tid = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;  // spans only
  std::vector<std::pair<std::string, std::string>> args;
};

/// Collects spans from all threads for one traced run. Thread-safe;
/// span end is one short mutex-guarded vector push (off the analysis hot
/// path — spans wrap whole requests/queries, not solver inner loops).
class Tracer {
 public:
  Tracer();

  void record(TraceEvent event);

  /// Records a counter sample ("C" event) on the current thread: Perfetto
  /// renders each named series as a counter track under the thread, so
  /// per-query solver rates and sizes read as timelines beneath the spans
  /// that produced them. Doubles render with fixed 3-digit precision so
  /// documents stay deterministic for a given set of samples.
  void counter(const char* name, std::uint64_t value);
  void counter(const char* name, double value);

  /// Records a thread-scoped instant ("i" event) — a point marker, e.g. a
  /// solver restart, nested under whatever span encloses it.
  void instant(const char* name);

  /// Microseconds since this tracer was created (steady clock).
  std::uint64_t now_us() const noexcept;

  std::size_t event_count() const;

  /// The full Chrome trace_event document:
  /// {"traceEvents": [...], "displayTimeUnit": "ms"}. Leads with "M"
  /// metadata events (process_name "fsr" + one thread_name per thread
  /// named via set_thread_name, sorted by tid), then data events sorted by
  /// (tid, start_us) so the document is stable for a given set of events.
  std::string chrome_trace_json() const;

  /// Writes chrome_trace_json() to `path` via a temp file + atomic rename,
  /// so an interrupted run never leaves a truncated, unparseable trace.
  /// Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// Installs `tracer` as the process-wide sink (nullptr to disable). The
/// caller keeps ownership and must keep it alive until uninstalled; live
/// Spans hold the pointer across the swap, so uninstall before destroying.
void install_tracer(Tracer* tracer);
Tracer* tracer() noexcept;

/// Dense per-process thread id (0, 1, 2, ...) assigned on first use; the
/// same ids key trace events, flight-recorder events, and thread names.
std::uint32_t current_thread_tid() noexcept;

/// Names the calling thread for trace output ("main", "worker-0", ...):
/// every Tracer renders the name as a Chrome "M" thread_name metadata
/// event so Perfetto shows named tracks instead of bare dense tids.
/// Process-lifetime and tracer-independent; naming a tid twice keeps the
/// latest name. Cheap, but not for hot paths (takes a mutex).
void set_thread_name(const std::string& name);

/// Counter/instant conveniences against the installed tracer; one relaxed
/// load and out when tracing is off, mirroring Span's off-cost.
void trace_counter(const char* name, std::uint64_t value);
void trace_counter(const char* name, double value);
void trace_instant(const char* name);

/// RAII span: records [construction, destruction) on the current thread
/// against the tracer installed at construction. When no tracer is
/// installed the constructor is a no-op (one relaxed load) and arg() is
/// free.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const noexcept { return tracer_ != nullptr; }

  /// Attach a key/value to the span (rendered in the trace's args object).
  void arg(const char* key, const std::string& value);
  /// A C string is a string argument (without this overload it would
  /// convert to the bool one).
  void arg(const char* key, const char* value) {
    if (tracer_ != nullptr) arg(key, std::string(value));
  }
  void arg(const char* key, std::uint64_t value);
  void arg(const char* key, std::int64_t value);
  void arg(const char* key, int value) {
    arg(key, static_cast<std::int64_t>(value));
  }
  void arg(const char* key, bool value);

 private:
  Tracer* tracer_ = nullptr;  // bound at construction; null = disabled
  TraceEvent event_;
};

}  // namespace fsr::obs

#endif  // FSR_OBS_TRACE_H
