// The typed request/response family of the fsr::api service façade.
//
// Every analysis the toolkit can run — safety analysis, exact stable-paths
// ground truth, counterexample-guided repair, NDlog emulation — is phrased
// as one tagged Request and answered by one Response. The request carries
// only the PROBLEM (shared immutable payloads plus the seed where results
// are legitimately seed-dependent); engine configuration lives in
// ServiceOptions (service.h), so two services with equal options answer
// equal requests identically, byte for byte.
//
// Determinism contract: a Response's deterministic fields (everything
// except wall_ms and warm_session, which renderers exclude by default) are
// a pure function of (request content, service options, request seed) —
// independent of worker count, scheduling, and warm-session temperature.
// That is what lets fsr_serve promise byte-identical output for any
// --threads value, and what the service-layer tests sweep.
#ifndef FSR_API_REQUEST_H
#define FSR_API_REQUEST_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "algebra/algebra.h"
#include "fsr/emulation.h"
#include "fsr/safety_analyzer.h"
#include "groundtruth/engine.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "repair/repair_engine.h"
#include "sim/simulator.h"
#include "spp/spp.h"
#include "topology/topology.h"

namespace fsr::api {

enum class RequestKind {
  analyze_safety,
  ground_truth,
  repair,
  emulate,
  simulate,
  stats,
  debug,
};

const char* to_string(RequestKind kind) noexcept;
/// Parses the wire spelling ("analyze-safety", "ground-truth", "repair",
/// "emulate", "simulate", "stats", "debug"); nullopt for anything else.
std::optional<RequestKind> parse_request_kind(const std::string& text);

/// Safety analysis (paper Section IV): exactly one of `algebra` (analyze
/// directly) or `spp` (translate per Section III-B, then analyze).
struct AnalyzeSafetyRequest {
  algebra::AlgebraPtr algebra;
  std::shared_ptr<const spp::SppInstance> spp;
};

/// Exact stable-paths verdict for an SPP instance. `mode` overrides the
/// service's default oracle per request (sat-search answers through the
/// worker's warm StableSatSession when one is cached for this instance).
struct GroundTruthRequest {
  std::shared_ptr<const spp::SppInstance> spp;
  std::optional<groundtruth::Mode> mode;
};

/// Counterexample-guided repair of an SPP instance. Like safety analysis
/// and ground truth, its answer is a pure function of the instance (and
/// the service options), so the request carries no seed.
struct RepairRequest {
  std::shared_ptr<const spp::SppInstance> spp;
};

/// NDlog emulation (paper Section VI): an SPP instance, or an algebra over
/// an annotated topology. Results are seed-dependent by design (timer
/// jitter, batching drift), so the seed is part of the request identity.
struct EmulateRequest {
  std::shared_ptr<const spp::SppInstance> spp;
  algebra::AlgebraPtr algebra;
  std::shared_ptr<const topology::Topology> topology;
  std::uint64_t seed = 1;
};

/// Event-driven SPVP simulation (sim/simulator.h): how an SPP instance
/// converges — messages, activation steps, churn response — rather than
/// whether it can diverge. Results are seed-dependent by design (the seed
/// fixes link delays and churn schedules), so the seed, scenario,
/// suppression policy, and step budget are part of the request identity;
/// the remaining knobs live in ServiceOptions::sim like every other
/// engine's configuration.
struct SimulateRequest {
  std::shared_ptr<const spp::SppInstance> spp;
  std::uint64_t seed = 1;
  /// One of sim::scenario_names(); validate() rejects anything else.
  std::string scenario = "steady";
  /// One of sim::suppression_names(); validate() rejects anything else.
  std::string suppression = "none";
  /// Overrides ServiceOptions::sim.max_steps when set.
  std::optional<std::uint64_t> max_steps;
};

/// Live service introspection: no payload, no solver work. The response
/// carries the service's own counters plus a snapshot of the process-wide
/// obs registry. Values are execution state, not analysis results — the
/// one request kind whose response bytes legitimately depend on what else
/// the process has done (schema and field order stay fixed; fsr_serve
/// drains every earlier request first so a serial stream sees a
/// well-defined "everything before me" snapshot). Never cached: its
/// fingerprint is empty by contract, so it can never hit the session cache
/// or a campaign ResultCache — a live snapshot served from a cache would
/// be a lie.
struct StatsRequest {};

/// Flight-recorder drain: no payload, no solver work. The response carries
/// the merged recent-event history of the installed obs::FlightRecorder
/// (empty with `enabled: false` when none is installed — e.g. fsr_serve
/// without --recorder). Live execution state like `stats`: the event list
/// depends on what the process did, the schema and ordering (global seq)
/// are fixed, and fsr_serve drains every earlier request first so the
/// history is quiesced and complete when read. Never cached, like `stats`:
/// the empty fingerprint keeps it out of every cache layer by construction.
struct DebugRequest {};

using Request =
    std::variant<AnalyzeSafetyRequest, GroundTruthRequest, RepairRequest,
                 EmulateRequest, SimulateRequest, StatsRequest, DebugRequest>;

RequestKind kind_of(const Request& request) noexcept;

/// Throws fsr::InvalidArgument unless the request carries exactly the
/// payload shape its kind needs (the service turns the throw into an
/// error Response; callers may validate early for fail-fast behaviour).
void validate(const Request& request);

/// A request compiled once: the request, its canonical payload text, its
/// content fingerprint and its validation error, computed together by
/// compile() — the one place in the serving path where validate(), the
/// payload canonicalisation and util::content_digest run. Only compile()
/// constructs one, so the identity always matches the content. The
/// service's queue, its session cache and the campaign's cache key all
/// read these values instead of recomputing them.
class CompiledRequest {
 public:
  const Request& request() const noexcept { return request_; }
  /// Canonical text of the payload the request carries, whether or not
  /// the request is valid: spp::canonical_spp for an SPP instance, else
  /// "alg|<name>|" + algebra::canonical_spec, plus "|topo|" +
  /// topology::canonical_topology when a topology rides along. Empty when
  /// the request carries no payload (stats, debug, or a missing one).
  const std::string& canonical() const noexcept { return canonical_; }
  /// 16-hex util::content_digest of canonical(): kind-free and seed-free,
  /// so a ground-truth request and a repair request over the same
  /// instance share one fingerprint and hence one warm session-cache
  /// entry. Empty for stats and debug requests (nothing to cache) and for
  /// invalid requests (they route by the empty string).
  const std::string& fingerprint() const noexcept { return fingerprint_; }
  /// validate()'s message when the request is malformed, else empty. The
  /// service answers such a request with exactly this error text.
  const std::string& error() const noexcept { return error_; }

 private:
  friend CompiledRequest compile(Request request);
  CompiledRequest() = default;

  Request request_;
  std::string canonical_;
  std::string fingerprint_;
  std::string error_;
};

/// Validates, canonicalises and fingerprints `request` once (counted in
/// the "api.compilations" registry counter, timed by the "api.compile"
/// span). Never throws on a malformed request: the error is recorded.
CompiledRequest compile(Request request);

/// compile(request).fingerprint(), throwing fsr::InvalidArgument with the
/// validation error when the request is malformed.
std::string fingerprint(const Request& request);

/// Lifetime counters of one AnalysisService (deltas since construction,
/// carved out of the process-wide obs registry so a test or caller can
/// reason about "this service's" work even though the registry is global).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;       // responses with a non-empty error
  std::uint64_t warm_hits = 0;    // responses served from warm sessions
  std::uint64_t sessions_built = 0;
  std::uint64_t sessions_evicted = 0;
  std::uint64_t slow_requests = 0;  // wall time over ServiceOptions threshold
  /// Warm hits that landed on the worker the shard router maps the
  /// instance to — affinity scheduling observed, not inferred. Under
  /// SchedulePolicy::affinity this tracks warm_hits; under round_robin it
  /// counts only accidental alignment.
  std::uint64_t affinity_hits = 0;
};

/// What a StatsRequest answers with: the owning service's counters plus
/// the process-wide registry snapshot (obs/metrics.h).
struct StatsPayload {
  ServiceStats service;
  obs::MetricsSnapshot metrics;
};

/// What a DebugRequest answers with: the installed flight recorder's
/// merged event history (obs/recorder.h). `enabled` is false — and the
/// rest zero/empty — when no recorder is installed.
struct DebugPayload {
  bool enabled = false;
  std::uint64_t dropped = 0;  // lifetime ring-overwrite count
  std::vector<obs::RecorderEvent> events;
};

/// One request's answer. Exactly one payload optional is set on success
/// (matching the request kind); `error` is non-empty instead when the
/// request failed, and a failed request never aborts the service.
struct Response {
  std::uint64_t id = 0;  // dense submission order, the response ordering key
  RequestKind kind = RequestKind::analyze_safety;
  std::string fingerprint;
  std::string error;

  std::optional<SafetyReport> safety;
  std::optional<groundtruth::Result> ground_truth;
  std::optional<repair::RepairReport> repair;
  std::optional<EmulationResult> emulation;
  std::optional<sim::SimResult> sim;
  std::optional<StatsPayload> stats;
  std::optional<DebugPayload> debug;

  // Execution provenance: scheduling-dependent, so excluded from
  // deterministic renderings (wire.h gates them behind `timings`).
  bool warm_session = false;  // served entirely from cached solver sessions
  double wall_ms = 0.0;
  int shard = -1;  // worker that served the request; -1 = not recorded
};

}  // namespace fsr::api

#endif  // FSR_API_REQUEST_H
