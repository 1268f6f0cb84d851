#include "api/service.h"

#include <chrono>
#include <utility>

#include "obs/recorder.h"
#include "obs/trace.h"
#include "spp/translate.h"
#include "util/error.h"

namespace fsr::api {
namespace {

/// Maps a session query result onto the engine-facade Result shape,
/// exactly as groundtruth's SatSearchEngine does for the scratch path —
/// the two paths agree on every deterministic field wherever no conflict
/// budget dies mid-query (the PR-4 tested property); effort counters are
/// execution provenance either way.
groundtruth::Result to_ground_truth_result(
    const groundtruth::StableSearchResult& search) {
  groundtruth::Result result;
  result.decided = search.decided;
  result.has_stable = search.has_stable;
  result.count = search.count;
  result.count_exact = search.count_exact;
  result.budget_stop = search.budget_stop;
  if (!search.assignments.empty()) {
    result.witness = search.assignments.front();  // canonical order
  }
  result.conflicts = search.stats.conflicts;
  result.decisions = search.stats.decisions;
  result.propagations = search.stats.propagations;
  return result;
}

}  // namespace

const char* to_string(SchedulePolicy policy) noexcept {
  switch (policy) {
    case SchedulePolicy::affinity:
      return "affinity";
    case SchedulePolicy::round_robin:
      return "round-robin";
  }
  return "affinity";
}

AnalysisService::AnalysisService(ServiceOptions options)
    : options_(std::move(options)),
      router_(options_.threads < 1 ? 1
                                   : static_cast<std::size_t>(options_.threads)),
      submitted_counter_(obs::registry().counter("service.requests.submitted")),
      completed_counter_(obs::registry().counter("service.requests.completed")),
      errors_counter_(obs::registry().counter("service.requests.errors")),
      warm_hits_counter_(obs::registry().counter("service.warm_hits")),
      sessions_built_counter_(obs::registry().counter("service.sessions_built")),
      evictions_counter_(obs::registry().counter("session_cache.evictions")),
      slow_requests_counter_(obs::registry().counter("service.slow_requests")),
      affinity_hits_counter_(
          obs::registry().counter("session_cache.affinity_hits")),
      request_wall_us_(obs::registry().histogram("service.request_wall_us")) {
  if (options_.threads < 1) {
    throw InvalidArgument("service thread count must be >= 1");
  }
  // stats() reports deltas against the registry state seen here.
  baseline_.submitted = submitted_counter_.value();
  baseline_.completed = completed_counter_.value();
  baseline_.errors = errors_counter_.value();
  baseline_.warm_hits = warm_hits_counter_.value();
  baseline_.sessions_built = sessions_built_counter_.value();
  baseline_.sessions_evicted = evictions_counter_.value();
  baseline_.slow_requests = slow_requests_counter_.value();
  baseline_.affinity_hits = affinity_hits_counter_.value();
  queues_.resize(static_cast<std::size_t>(options_.threads));
  workers_.reserve(static_cast<std::size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this, i]() {
      obs::set_thread_name("worker-" + std::to_string(i));
      worker_loop(static_cast<std::size_t>(i));
    });
  }
}

AnalysisService::~AnalysisService() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::uint64_t AnalysisService::enqueue(CompiledRequest request,
                                       std::function<void(Response)> deliver) {
  // A malformed request's error surfaces as its response's error field
  // (from execute(), where the bytes are defined), not here; its empty
  // fingerprint routes it deterministically.
  Job job;
  job.request = request.request();
  job.fingerprint = request.fingerprint();
  job.error = request.error();
  job.deliver = std::move(deliver);
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw InvalidArgument("submit on a shut-down AnalysisService");
    }
    id = job.id = next_id_++;
    const std::size_t shard =
        options_.schedule == SchedulePolicy::affinity
            ? router_.shard_of(job.fingerprint)
            : static_cast<std::size_t>(rr_next_++) % queues_.size();
    queues_[shard].push_back(std::move(job));
  }
  submitted_counter_.add(1);
  // Affinity pins jobs to one worker's queue, so a targeted wake matters;
  // notify_all keeps the logic simple and submission is rare next to work.
  work_ready_.notify_all();
  return id;
}

std::future<Response> AnalysisService::submit(Request request) {
  // std::function must be copyable; a promise is move-only, so park it in a
  // shared_ptr the deliver closure can own.
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  enqueue(compile(std::move(request)), [promise](Response response) {
    promise->set_value(std::move(response));
  });
  return future;
}

std::uint64_t AnalysisService::submit(Request request,
                                      std::function<void(Response)> on_complete) {
  return enqueue(compile(std::move(request)), std::move(on_complete));
}

std::uint64_t AnalysisService::submit(CompiledRequest request,
                                      std::function<void(Response)> on_complete) {
  return enqueue(std::move(request), std::move(on_complete));
}

std::vector<Response> AnalysisService::run(std::vector<Request> requests) {
  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  for (Request& request : requests) {
    futures.push_back(submit(std::move(request)));
  }
  std::vector<Response> responses;
  responses.reserve(futures.size());
  for (std::future<Response>& future : futures) {
    responses.push_back(future.get());
  }
  return responses;
}

Response AnalysisService::call(Request request) {
  return submit(std::move(request)).get();
}

ServiceStats AnalysisService::stats() const {
  ServiceStats stats;
  stats.submitted = submitted_counter_.value() - baseline_.submitted;
  stats.completed = completed_counter_.value() - baseline_.completed;
  stats.errors = errors_counter_.value() - baseline_.errors;
  stats.warm_hits = warm_hits_counter_.value() - baseline_.warm_hits;
  stats.sessions_built =
      sessions_built_counter_.value() - baseline_.sessions_built;
  stats.sessions_evicted =
      evictions_counter_.value() - baseline_.sessions_evicted;
  stats.slow_requests =
      slow_requests_counter_.value() - baseline_.slow_requests;
  stats.affinity_hits =
      affinity_hits_counter_.value() - baseline_.affinity_hits;
  return stats;
}

void AnalysisService::worker_loop(std::size_t worker) {
  // Worker-owned mutable state: the session cache and (transitively) every
  // solver session it stores live and die with this thread; nothing
  // mutable is ever shared across workers. Each worker drains only its own
  // queue — that is what makes affinity routing stick.
  SessionCache cache(options_.session_cache_capacity);
  std::deque<Job>& queue = queues_[worker];
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&]() { return stopping_ || !queue.empty(); });
      if (queue.empty()) return;  // stopping_, and nothing left to drain
      job = std::move(queue.front());
      queue.pop_front();
    }
    Response response = execute(job, cache, worker);
    completed_counter_.add(1);
    if (!response.error.empty()) errors_counter_.add(1);
    if (response.warm_session) {
      warm_hits_counter_.add(1);
      if (!response.fingerprint.empty() &&
          router_.shard_of(response.fingerprint) == worker) {
        // A warm hit on the worker the router maps this instance to: the
        // observable signature of affinity scheduling doing its job.
        affinity_hits_counter_.add(1);
      }
    }
    // Evictions are counted by the SessionCache itself, straight into the
    // registry — no double bookkeeping here.
    job.deliver(std::move(response));
  }
}

Response AnalysisService::execute(const Job& job, SessionCache& cache,
                                  std::size_t worker) {
  const std::uint64_t id = job.id;
  const Request& request = job.request;
  Response response;
  response.id = id;
  response.kind = kind_of(request);
  response.fingerprint = job.fingerprint;
  // Execution provenance (timings-gated on the wire, like wall_ms): WHICH
  // worker served the request. Never part of the deterministic bytes.
  response.shard = static_cast<int>(worker);
  obs::Span span("service.execute");
  span.arg("kind", to_string(response.kind));
  span.arg("id", id);
  obs::record_event(obs::RecorderEventKind::request_begin,
                    to_string(response.kind), id);
  const auto start = std::chrono::steady_clock::now();
  try {
    // Compiled at submission: the stored error is validate()'s message.
    if (!job.error.empty()) throw InvalidArgument(job.error);

    if (const auto* req = std::get_if<AnalyzeSafetyRequest>(&request)) {
      // Safety analysis stays on the stateless analyzer: its reports embed
      // a fresh context's normalised witness model and minimal core, and a
      // warm incremental session could legitimately pick a different
      // witness or core — byte-stability wins over warmth.
      const algebra::AlgebraPtr algebra =
          req->algebra != nullptr ? req->algebra
                                  : spp::algebra_from_spp(*req->spp);
      response.safety = SafetyAnalyzer().analyze(*algebra);
    } else if (const auto* req = std::get_if<GroundTruthRequest>(&request)) {
      const groundtruth::Mode mode = req->mode.value_or(options_.ground_truth);
      const groundtruth::Options& truth_options =
          options_.ground_truth_options;
      if (mode == groundtruth::Mode::sat_search) {
        SessionCache::Entry* entry =
            cache.ensure(response.fingerprint, req->spp);
        response.warm_session = entry->oracle.has_value();
        if (!response.warm_session) {
          entry->oracle.emplace(*entry->instance);
          sessions_built_counter_.add(1);
        }
        groundtruth::StableSearchResult search = entry->oracle->analyze(
            {}, truth_options.max_solutions, truth_options.max_conflicts);
        if (response.warm_session &&
            search.budget_stop != groundtruth::BudgetStop::none) {
          // A budget-stopped answer is order-dependent: WHICH assignments a
          // capped enumeration finds (and whether a conflict cap decides at
          // all) follows the solver's search order, which a warm session's
          // learned clauses and activity perturb. The byte-identity
          // contract outranks warmth here: recompute on a fresh session,
          // exactly what a cold worker would have done.
          groundtruth::StableSatSession fresh(*entry->instance);
          search = fresh.analyze({}, truth_options.max_solutions,
                                 truth_options.max_conflicts);
          response.warm_session = false;
        }
        response.ground_truth = to_ground_truth_result(search);
      } else {
        // The enumerate backend keeps no solver state worth warming.
        response.ground_truth =
            groundtruth::make_engine(mode, truth_options)->analyze(*req->spp);
      }
    } else if (const auto* req = std::get_if<RepairRequest>(&request)) {
      SessionCache::Entry* entry = cache.ensure(response.fingerprint, req->spp);
      repair::RepairSessions sessions;
      // A cold gate translates the instance once and lends that spec to
      // the search for this run; it is not kept in the entry (a Rocketfuel
      // spec is tens of kilobytes of strings), so a warm run's search
      // translates on its own.
      std::optional<algebra::SymbolicSpec> spec;
      const bool gate_warm = entry->strict_gate.has_value();
      if (!gate_warm) {
        spec.emplace(spp::algebra_from_spp(*entry->instance)->symbolic());
        IncrementalSafetySession::Options gate_options;
        gate_options.extract_models = false;  // gates branch on holds/core
        entry->strict_gate.emplace(*spec, MonotonicityMode::strict,
                                   gate_options);
        sessions_built_counter_.add(1);
        sessions.spec = &*spec;
      }
      sessions.strict_gate = &*entry->strict_gate;
      bool oracle_warm = true;
      if (options_.repair.ground_truth == groundtruth::Mode::sat_search &&
          options_.repair.use_incremental_oracle) {
        oracle_warm = entry->oracle.has_value();
        if (!oracle_warm) {
          entry->oracle.emplace(*entry->instance);
          sessions_built_counter_.add(1);
        }
        sessions.oracle = &*entry->oracle;
      }
      response.warm_session = gate_warm && oracle_warm;
      response.repair = repair::RepairEngine(options_.repair)
                            .repair(*req->spp, sessions);
    } else if (const auto* req = std::get_if<EmulateRequest>(&request)) {
      EmulationOptions emulation = options_.emulation;
      emulation.seed = req->seed;
      response.emulation = req->spp != nullptr
                               ? emulate_spp(*req->spp, emulation)
                               : emulate_gpv(*req->algebra, *req->topology,
                                             emulation);
    } else if (const auto* req = std::get_if<SimulateRequest>(&request)) {
      // The simulator is deterministic in (instance, options) and keeps no
      // solver state, so there is nothing to warm: the fingerprint still
      // identifies the content (shared with the other kinds over the same
      // instance), but the session cache is never consulted.
      sim::SimOptions sim_options = options_.sim;
      sim_options.seed = req->seed;
      sim_options.scenario = req->scenario;
      sim_options.suppression = req->suppression;
      if (req->max_steps.has_value()) sim_options.max_steps = *req->max_steps;
      response.sim = sim::simulate(*req->spp, sim_options);
    } else if (std::get_if<StatsRequest>(&request) != nullptr) {
      // Live introspection: this service's own deltas plus the process
      // registry. No solver work, no session-cache traffic.
      StatsPayload payload;
      payload.service = stats();
      payload.metrics = obs::registry().snapshot();
      response.stats = std::move(payload);
    } else if (std::get_if<DebugRequest>(&request) != nullptr) {
      // Flight-recorder drain: live like stats. This request's own
      // begin event is already in the rings (intentional — the drain
      // shows the recorder's view up to and including "debug started").
      DebugPayload payload;
      if (obs::FlightRecorder* recorder = obs::recorder()) {
        payload.enabled = true;
        payload.events = recorder->drain();
        payload.dropped = recorder->dropped();
      }
      response.debug = std::move(payload);
    }
  } catch (const std::exception& error) {
    response.error = error.what();
  }
  response.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  const auto wall_us = static_cast<std::uint64_t>(response.wall_ms * 1000.0);
  request_wall_us_.record(wall_us);
  if (!response.error.empty()) {
    obs::record_event(obs::RecorderEventKind::error, response.error, id);
  }
  obs::record_event(obs::RecorderEventKind::request_end, response.fingerprint,
                    id, wall_us);
  if (options_.slow_request_ms > 0 &&
      response.wall_ms >= options_.slow_request_ms) {
    // Watchdog: count the outlier and leave a forensic mark in every
    // enabled channel. Never touches the response itself.
    slow_requests_counter_.add(1);
    obs::record_event(
        obs::RecorderEventKind::slow_request, response.fingerprint, wall_us,
        static_cast<std::uint64_t>(options_.slow_request_ms));
    obs::trace_instant("service.slow_request");
  }
  span.arg("warm", response.warm_session);
  if (!response.error.empty()) span.arg("error", true);
  return response;
}

}  // namespace fsr::api
