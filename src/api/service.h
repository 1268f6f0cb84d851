// AnalysisService: the one public way into the toolkit's engines.
//
// A service owns a fixed pool of worker threads. Callers submit typed
// Requests (request.h) and receive std::future<Response>; each worker
// keeps a SessionCache of persistent solver sessions (session_cache.h)
// reused across requests keyed by instance fingerprint, so repeated and
// nearby queries hit warm solver state instead of rebuilding — the PR 2 /
// PR 4 within-one-run amortisation extended across the whole service
// lifetime. The previous per-engine surfaces (SafetyAnalyzer,
// GroundTruthEngine, RepairEngine, the emulation drivers) remain as the
// service's backends; new workloads plumb requests, not engines.
//
// Determinism contract (inherited by fsr_serve and the campaign runner):
// every Response's deterministic fields are a pure function of (request
// content, ServiceOptions, request seed). Responses are identified and
// ordered by their dense submission id; worker count, scheduling, and
// session-cache temperature never change deterministic bytes — warm
// sessions are only reused where the answer is provably byte-identical to
// a cold solve (see session_cache.h). Budget-stopped ground-truth answers
// are order-dependent, so those recompute on a fresh session instead of
// trusting warm state; the one residual caveat is a repair oracle's
// conflict budget dying mid-search, the same edge the campaign cache
// keys by.
//
// Thread-safety: submit()/call()/run() and stats() are safe from any
// thread. Workers never share mutable solver state (the
// one-solver-session-per-worker invariant, now owned by the service).
#ifndef FSR_API_SERVICE_H
#define FSR_API_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "api/request.h"
#include "api/session_cache.h"
#include "api/shard_router.h"
#include "fsr/emulation.h"
#include "fsr/safety_analyzer.h"
#include "groundtruth/engine.h"
#include "obs/metrics.h"
#include "repair/repair_engine.h"
#include "sim/simulator.h"

namespace fsr::api {

/// How submit() picks the worker for a request.
enum class SchedulePolicy {
  /// Fingerprint-affinity sharding (the default): the request's content
  /// fingerprint is consistent-hashed onto a worker shard (ShardRouter),
  /// so the same instance always lands on the worker already holding its
  /// warm StableSatSession / IncrementalSafetySession. This is what keeps
  /// the warm hit rate from being diluted by concurrency; response bytes
  /// never depend on it.
  affinity,
  /// Blind rotation over the workers, ignoring the fingerprint — the
  /// pre-netserve submission behaviour, kept as the measurable ablation
  /// baseline (bench_service gates affinity's win over this).
  round_robin,
};

const char* to_string(SchedulePolicy policy) noexcept;

/// The one options struct behind the façade: subsumes the per-engine
/// option structs the four previous entry points took separately.
struct ServiceOptions {
  /// Worker threads (>= 1). Each worker owns its solver sessions and its
  /// SessionCache; deterministic response fields never depend on this.
  int threads = 1;
  /// Warm solver-session entries kept per worker (LRU beyond that);
  /// 0 disables cross-request session reuse entirely.
  std::size_t session_cache_capacity = 8;
  repair::RepairOptions repair;
  /// Default ground-truth oracle for GroundTruthRequest (per-request
  /// override via GroundTruthRequest::mode) and its budgets.
  groundtruth::Mode ground_truth = groundtruth::Mode::sat_search;
  groundtruth::Options ground_truth_options;
  /// Base emulation options; each EmulateRequest overrides `.seed`.
  EmulationOptions emulation;
  /// Base event-driven simulation options; each SimulateRequest overrides
  /// `.seed`, `.scenario`, and (when set) `.max_steps`.
  sim::SimOptions sim;
  /// Slow-request watchdog: a request whose wall time reaches this many
  /// milliseconds is counted in "service.slow_requests" (stats and the obs
  /// registry), marked in the flight recorder when one is installed, and
  /// stamped as a "service.slow_request" trace instant when tracing — the
  /// forensic trail for latency outliers. 0 disables the watchdog.
  /// Observation only: response bytes never depend on it.
  double slow_request_ms = 1000.0;
  /// Worker-selection policy for submit(). Affinity preserves warm-session
  /// locality; round_robin is the hash-free ablation baseline. Response
  /// bytes are identical either way (the determinism contract) — only
  /// cache temperature, and hence latency, differs.
  SchedulePolicy schedule = SchedulePolicy::affinity;
};

// ServiceStats now lives in request.h (a StatsRequest response embeds it).

class AnalysisService {
 public:
  explicit AnalysisService(ServiceOptions options = {});
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Enqueues `request` and returns the future response. Ids are dense and
  /// assigned in submission order; a request that fails (invalid payload,
  /// engine exception) resolves to a Response with `error` set — submit
  /// itself throws only after the service started shutting down.
  std::future<Response> submit(Request request);

  /// Completion-callback submission — the netserve event loop's hook.
  /// `on_complete` runs on the worker thread that served the request, with
  /// the finished Response; it must be fast and must not throw (dispatch a
  /// wake-up, not work). Returns the request's dense submission id.
  std::uint64_t submit(Request request,
                       std::function<void(Response)> on_complete);
  /// The same, for a request the caller already compiled (the campaign
  /// keys its cache from the compiled canonical text, then submits it).
  std::uint64_t submit(CompiledRequest request,
                       std::function<void(Response)> on_complete);

  /// Submits the batch and waits for all of it; responses come back in
  /// submission (id) order regardless of which workers answered.
  std::vector<Response> run(std::vector<Request> requests);

  /// Synchronous convenience: submit + get.
  Response call(Request request);

  /// The fingerprint→worker mapping — the affinity seam, exposed so the
  /// scheduling decision is a first-class, testable artifact rather than
  /// an implementation detail. Under SchedulePolicy::affinity this is the
  /// worker submit() picks; responses expose the worker that actually
  /// served them as timings-gated `shard` provenance.
  std::size_t shard_of(const std::string& fingerprint) const noexcept {
    return router_.shard_of(fingerprint);
  }

  const ServiceOptions& options() const noexcept { return options_; }
  /// This service's own counter deltas since construction. The underlying
  /// instruments are the process-wide obs registry ("service.*" and
  /// "session_cache.evictions"); the constructor snapshots a baseline so
  /// concurrent *sequential* services each see their own work. (Two
  /// services running simultaneously share the registry and will see each
  /// other's increments — the registry is process truth, stats() is a
  /// per-instance view.)
  ServiceStats stats() const;

 private:
  struct Job {
    std::uint64_t id = 0;
    /// The compiled request's request, fingerprint and validation error.
    /// Its canonical text is not kept: a queued job holds only the digest.
    Request request;
    /// Routing fingerprint (empty for stats/debug and invalid payloads).
    std::string fingerprint;
    std::string error;
    /// Fulfils the caller: a promise-setter for future submits, the raw
    /// callback for hook submits.
    std::function<void(Response)> deliver;
  };

  std::uint64_t enqueue(CompiledRequest request,
                        std::function<void(Response)> deliver);
  void worker_loop(std::size_t worker);
  Response execute(const Job& job, SessionCache& cache, std::size_t worker);

  ServiceOptions options_;
  ShardRouter router_;

  // One queue per worker: affinity routing is a push-time decision, and a
  // worker only ever drains its own queue (sessions stay single-owner).
  // One mutex/condvar pair guards them all — submission is cheap next to
  // solver work, so finer-grained locking would buy nothing.
  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::vector<std::deque<Job>> queues_;
  bool stopping_ = false;
  std::uint64_t next_id_ = 0;
  std::uint64_t rr_next_ = 0;  // round_robin rotation state (under mutex_)
  std::vector<std::thread> workers_;

  // Consolidated counters: one source of truth in the obs registry.
  // References are stable for the process lifetime (obs/metrics.h).
  obs::Counter& submitted_counter_;
  obs::Counter& completed_counter_;
  obs::Counter& errors_counter_;
  obs::Counter& warm_hits_counter_;
  obs::Counter& sessions_built_counter_;
  obs::Counter& evictions_counter_;  // shared with SessionCache
  obs::Counter& slow_requests_counter_;
  obs::Counter& affinity_hits_counter_;  // warm hits on the mapped shard
  obs::Histogram& request_wall_us_;
  ServiceStats baseline_;  // registry values at construction
};

}  // namespace fsr::api

#endif  // FSR_API_SERVICE_H
