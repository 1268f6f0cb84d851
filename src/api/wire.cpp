#include "api/wire.h"

#include <limits>
#include <utility>

#include "algebra/standard_policies.h"
#include "api/json.h"
#include "obs/metrics.h"
#include "spp/gadgets.h"
#include "spp/random_instance.h"
#include "util/error.h"
#include "util/strings.h"

namespace fsr::api::wire {
namespace {

using util::json_quoted;

algebra::AlgebraPtr policy_by_name(const std::string& name) {
  if (name == "guideline-a") return algebra::gao_rexford_guideline_a();
  if (name == "guideline-b") return algebra::gao_rexford_guideline_b();
  if (name == "backup") return algebra::backup_routing();
  if (name == "bandwidth") return algebra::bandwidth_classes({10, 100, 1000});
  if (name == "widest-shortest") {
    return algebra::widest_shortest({10, 100, 1000});
  }
  if (name == "gao-rexford-hop-count") {
    return algebra::gao_rexford_with_hop_count();
  }
  throw InvalidArgument("unknown policy '" + name + "'");
}

spp::SppInstance inline_spp(const json::Value& value) {
  // Field names for the per-edge and per-hop reads, built once.
  static const std::string k_edge = "spp edge";
  static const std::string k_edge_node = "spp edge node";
  static const std::string k_path = "spp path";
  static const std::string k_hop = "spp path hop";
  const json::Value* name = value.find("name");
  const json::Value* destination = value.find("destination");
  spp::SppInstance instance(
      name != nullptr ? name->as_string("spp.name") : std::string("inline"),
      destination != nullptr ? destination->as_string("spp.destination")
                             : std::string("0"));
  const json::Value* edges = value.find("edges");
  if (edges == nullptr) throw InvalidArgument("spp payload needs edges");
  for (const json::Value& edge : edges->as_array("spp.edges")) {
    const auto& pair = edge.as_array(k_edge);
    if (pair.size() != 2) {
      throw InvalidArgument("spp edge must be a [u, v] pair");
    }
    instance.add_edge(pair[0].as_string(k_edge_node),
                      pair[1].as_string(k_edge_node));
  }
  const json::Value* paths = value.find("paths");
  if (paths == nullptr) throw InvalidArgument("spp payload needs paths");
  for (const json::Value& path : paths->as_array("spp.paths")) {
    const auto& items = path.as_array(k_path);
    spp::Path hops;
    hops.reserve(items.size());
    for (const json::Value& hop : items) {
      hops.push_back(hop.as_string(k_hop));
    }
    instance.add_permitted_path(std::move(hops));
  }
  return instance;
}

spp::SppInstance random_spp(const json::Value& value) {
  const json::Value* seed = value.find("seed");
  if (seed == nullptr) throw InvalidArgument("random payload needs a seed");
  spp::RandomSppSweep sweep;
  const auto u64_field = [&](const char* key, std::int32_t& out) {
    if (const json::Value* field = value.find(key)) {
      constexpr std::int32_t k_max = std::numeric_limits<std::int32_t>::max();
      const std::uint64_t raw = field->as_u64(key);
      if (raw > static_cast<std::uint64_t>(k_max)) {
        throw InvalidArgument("random." + std::string(key) +
                              " must be at most " + std::to_string(k_max) +
                              ", not " + std::to_string(raw));
      }
      out = static_cast<std::int32_t>(raw);
    }
  };
  u64_field("min_nodes", sweep.min_nodes);
  u64_field("max_nodes", sweep.max_nodes);
  u64_field("paths_per_node", sweep.paths_per_node);
  u64_field("max_path_length", sweep.max_path_length);
  const std::uint64_t seed_value = seed->as_u64("random.seed");
  return spp::random_spp_instance(
      "random-" + std::to_string(seed_value), seed_value, sweep);
}

/// Resolves the request's one payload into (spp, algebra); exactly one of
/// the accepted payload keys must be present.
struct Payload {
  std::shared_ptr<const spp::SppInstance> spp;
  algebra::AlgebraPtr algebra;
};

Payload parse_payload(const json::Value& body) {
  Payload payload;
  int sources = 0;
  if (const json::Value* gadget = body.find("gadget")) {
    ++sources;
    payload.spp = std::make_shared<const spp::SppInstance>(
        spp::gadget_by_name(gadget->as_string("gadget")));
  }
  if (const json::Value* policy = body.find("policy")) {
    ++sources;
    payload.algebra = policy_by_name(policy->as_string("policy"));
  }
  if (const json::Value* inline_value = body.find("spp")) {
    ++sources;
    payload.spp =
        std::make_shared<const spp::SppInstance>(inline_spp(*inline_value));
  }
  if (const json::Value* random_value = body.find("random")) {
    ++sources;
    payload.spp =
        std::make_shared<const spp::SppInstance>(random_spp(*random_value));
  }
  if (sources != 1) {
    throw InvalidArgument(
        "request needs exactly one payload: gadget | policy | spp | random");
  }
  return payload;
}

std::string render_path(const spp::Path& path) {
  return spp::path_name(path);
}

void append_safety(std::string& out, const SafetyReport& safety) {
  out += "\"safety\": {\"verdict\": ";
  out += json_quoted(safety.verdict == SafetyVerdict::safe
                         ? "safe"
                         : "not_provably_safe");
  out += ", \"narrative\": " + json_quoted(safety.narrative);
  out += ", \"checks\": [";
  for (std::size_t i = 0; i < safety.checks.size(); ++i) {
    const MonotonicityReport& check = safety.checks[i];
    if (i > 0) out += ", ";
    out += "{\"algebra\": " + json_quoted(check.algebra_name);
    out += ", \"mode\": ";
    out += json_quoted(check.mode == MonotonicityMode::strict ? "strict"
                                                              : "plain");
    out += ", \"holds\": ";
    out += check.holds ? "true" : "false";
    out += ", \"preference_constraints\": " +
           std::to_string(check.preference_constraint_count);
    out += ", \"monotonicity_constraints\": " +
           std::to_string(check.monotonicity_constraint_count);
    out += ", \"core\": [";
    for (std::size_t j = 0; j < check.unsat_core.size(); ++j) {
      if (j > 0) out += ", ";
      out += json_quoted(check.unsat_core[j].description);
    }
    out += "]}";
  }
  out += "]}";
}

void append_ground_truth(std::string& out, const groundtruth::Result& truth,
                         bool timings) {
  out += "\"ground_truth\": {\"decided\": ";
  out += truth.decided ? "true" : "false";
  out += ", \"has_stable\": ";
  out += truth.has_stable ? "true" : "false";
  out += ", \"count\": " + std::to_string(truth.count);
  out += ", \"count_exact\": ";
  out += truth.count_exact ? "true" : "false";
  out += ", \"budget_stop\": ";
  out += json_quoted(groundtruth::to_string(truth.budget_stop));
  if (truth.witness.has_value()) {
    out += ", \"witness\": {";
    bool first = true;
    for (const auto& [node, path] : *truth.witness) {
      if (!first) out += ", ";
      out += json_quoted(node) + ": " + json_quoted(render_path(path));
      first = false;
    }
    out += "}";
  }
  if (timings) {
    // Solver effort depends on session temperature (learned clauses carry
    // over on warm hits), so it rides with the provenance fields.
    out += ", \"states_scanned\": " + std::to_string(truth.states_scanned);
    out += ", \"conflicts\": " + std::to_string(truth.conflicts);
    out += ", \"decisions\": " + std::to_string(truth.decisions);
    out += ", \"propagations\": " + std::to_string(truth.propagations);
  }
  out += "}";
}

void append_stats(std::string& out, const StatsPayload& stats) {
  const ServiceStats& service = stats.service;
  out += "\"stats\": {\"service\": {\"submitted\": " +
         std::to_string(service.submitted);
  out += ", \"completed\": " + std::to_string(service.completed);
  out += ", \"errors\": " + std::to_string(service.errors);
  out += ", \"warm_hits\": " + std::to_string(service.warm_hits);
  out += ", \"affinity_hits\": " + std::to_string(service.affinity_hits);
  out += ", \"sessions_built\": " + std::to_string(service.sessions_built);
  out += ", \"sessions_evicted\": " + std::to_string(service.sessions_evicted);
  out += ", \"slow_requests\": " + std::to_string(service.slow_requests);
  out += "}, \"metrics\": " + obs::to_json(stats.metrics);
  out += "}";
}

void append_debug(std::string& out, const DebugPayload& debug) {
  out += "\"debug\": {\"enabled\": ";
  out += debug.enabled ? "true" : "false";
  out += ", \"dropped\": " + std::to_string(debug.dropped);
  out += ", \"events\": [";
  for (std::size_t i = 0; i < debug.events.size(); ++i) {
    const obs::RecorderEvent& event = debug.events[i];
    if (i > 0) out += ", ";
    out += "{\"seq\": " + std::to_string(event.seq);
    out += ", \"ts_us\": " + std::to_string(event.ts_us);
    out += ", \"tid\": " + std::to_string(event.tid);
    out += ", \"kind\": " + json_quoted(obs::to_string(event.kind));
    out += ", \"detail\": " + json_quoted(event.detail);
    out += ", \"a\": " + std::to_string(event.a);
    out += ", \"b\": " + std::to_string(event.b);
    out += "}";
  }
  out += "]}";
}

void append_repair(std::string& out, const repair::RepairReport& report,
                   bool timings) {
  out += "\"repair\": {\"instance\": " + json_quoted(report.instance);
  out += ", \"ground_truth_mode\": " +
         json_quoted(groundtruth::to_string(report.ground_truth_mode));
  out += ", \"already_safe\": ";
  out += report.already_safe ? "true" : "false";
  out += ", \"initial_core\": [";
  for (std::size_t i = 0; i < report.initial_core.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_quoted(report.initial_core[i].description);
  }
  out += "], \"repaired\": ";
  out += report.repaired() ? "true" : "false";
  out += ", \"candidates_checked\": " +
         std::to_string(report.candidates_checked);
  out += ", \"solver_checks\": " + std::to_string(report.solver_checks);
  out += ", \"cores_seen\": " + std::to_string(report.cores_seen);
  out += ", \"beam_pruned\": " + std::to_string(report.beam_pruned);
  out += ", \"budget_exhausted\": ";
  out += report.budget_exhausted ? "true" : "false";
  if (timings) {
    // Session-effort counters depend on cache temperature (a warm oracle
    // skips re-encoding groups a previous run paid for), so like the
    // ground-truth effort block they ride with the provenance fields.
    out += ", \"engine_rebuilds\": " + std::to_string(report.engine_rebuilds);
    out += ", \"oracle_queries\": " + std::to_string(report.oracle_queries);
    out += ", \"oracle_groups_encoded\": " +
           std::to_string(report.oracle_groups_encoded);
    out += ", \"oracle_cache_hits\": " +
           std::to_string(report.oracle_cache_hits);
  }
  out += ", \"repairs\": [";
  for (std::size_t i = 0; i < report.repairs.size(); ++i) {
    const repair::RepairCandidate& candidate = report.repairs[i];
    if (i > 0) out += ", ";
    out += "{\"edits\": [";
    for (std::size_t j = 0; j < candidate.edits.size(); ++j) {
      if (j > 0) out += ", ";
      out += json_quoted(candidate.edits[j].describe());
    }
    out += "], \"ground_truth\": " +
           json_quoted(repair::to_string(candidate.ground_truth));
    out += ", \"stable_assignments\": " +
           std::to_string(candidate.stable_assignments);
    out += ", \"oracle_budget\": " +
           json_quoted(groundtruth::to_string(candidate.oracle_budget));
    out += "}";
  }
  out += "]}";
}

void append_sim(std::string& out, const sim::SimResult& sim_result) {
  // Every field here is deterministic in (request, options, seed) — the
  // simulator never reads a wall clock — so nothing is timings-gated.
  out += "\"sim\": {\"scenario\": " + json_quoted(sim_result.scenario);
  out += ", \"suppression\": " + json_quoted(sim_result.suppression);
  out += ", \"converged\": ";
  out += sim_result.converged ? "true" : "false";
  out += ", \"oscillating\": ";
  out += sim_result.oscillating ? "true" : "false";
  out += ", \"cutoff\": ";
  out += sim_result.cutoff ? "true" : "false";
  out += ", \"steps\": " + std::to_string(sim_result.steps);
  out += ", \"ticks\": " + std::to_string(sim_result.ticks);
  out += ", \"messages\": " + std::to_string(sim_result.messages);
  out += ", \"route_changes\": " + std::to_string(sim_result.route_changes);
  out += ", \"convergence_tick\": " +
         std::to_string(sim_result.convergence_tick);
  out += ", \"cycle_length\": " + std::to_string(sim_result.cycle_length);
  out += ", \"fixed_point_stable\": ";
  out += sim_result.fixed_point_stable ? "true" : "false";
  out += ", \"fixed_point\": {";
  bool first = true;
  for (const auto& [node, path] : sim_result.final_assignment) {
    if (!first) out += ", ";
    out += json_quoted(node) + ": " + json_quoted(render_path(path));
    first = false;
  }
  out += "}}";
}

void append_emulation(std::string& out, const EmulationResult& emu) {
  out += "\"emulation\": {\"quiesced\": ";
  out += emu.quiesced ? "true" : "false";
  out += ", \"convergence_us\": " + std::to_string(emu.convergence_time);
  out += ", \"end_us\": " + std::to_string(emu.end_time);
  out += ", \"messages\": " + std::to_string(emu.messages);
  out += ", \"bytes\": " + std::to_string(emu.bytes);
  out += ", \"route_changes\": " + std::to_string(emu.route_changes);
  out += ", \"nodes\": " + std::to_string(emu.node_count);
  out += ", \"best_routes\": {";
  bool first = true;
  for (const auto& [node, route] : emu.best_routes) {
    if (!first) out += ", ";
    out += json_quoted(node) + ": {\"sig\": " + json_quoted(route.first);
    out += ", \"path\": [";
    for (std::size_t i = 0; i < route.second.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_quoted(route.second[i]);
    }
    out += "]}";
    first = false;
  }
  out += "}}";
}

}  // namespace

Request parse_request(const json::Value& body) {
  const json::Value* kind_value = body.find("kind");
  if (kind_value == nullptr) {
    throw InvalidArgument("request needs a kind");
  }
  const std::optional<RequestKind> kind =
      parse_request_kind(kind_value->as_string("kind"));
  if (!kind.has_value()) {
    // Named so a client staring at an fsr_serve error line can fix the
    // request without opening this file.
    throw InvalidArgument("unknown request kind '" +
                          kind_value->as_string("kind") +
                          "' (want analyze-safety, ground-truth, repair, "
                          "emulate, simulate, stats, or debug)");
  }
  if (*kind == RequestKind::stats || *kind == RequestKind::debug) {
    // Introspection carries no payload; anything else on the line is a
    // schema violation the caller should hear about.
    if (body.find("gadget") != nullptr || body.find("policy") != nullptr ||
        body.find("spp") != nullptr || body.find("random") != nullptr) {
      throw InvalidArgument(std::string(to_string(*kind)) +
                            " request takes no payload");
    }
    if (*kind == RequestKind::stats) return StatsRequest{};
    return DebugRequest{};
  }
  Payload payload = parse_payload(body);
  std::uint64_t seed = 1;
  if (const json::Value* seed_value = body.find("seed")) {
    seed = seed_value->as_u64("seed");
  }

  switch (*kind) {
    case RequestKind::analyze_safety: {
      AnalyzeSafetyRequest request;
      request.algebra = std::move(payload.algebra);
      request.spp = std::move(payload.spp);
      validate(Request(request));
      return request;
    }
    case RequestKind::ground_truth: {
      GroundTruthRequest request;
      request.spp = std::move(payload.spp);
      if (const json::Value* mode_value = body.find("mode")) {
        const std::optional<groundtruth::Mode> mode =
            groundtruth::parse_mode(mode_value->as_string("mode"));
        if (!mode.has_value()) {
          throw InvalidArgument("unknown ground-truth mode '" +
                                mode_value->as_string("mode") + "'");
        }
        request.mode = mode;
      }
      validate(Request(request));
      return request;
    }
    case RequestKind::repair: {
      RepairRequest request;
      request.spp = std::move(payload.spp);
      validate(Request(request));
      return request;
    }
    case RequestKind::emulate: {
      EmulateRequest request;
      request.spp = std::move(payload.spp);
      request.seed = seed;
      validate(Request(request));
      return request;
    }
    case RequestKind::simulate: {
      SimulateRequest request;
      request.spp = std::move(payload.spp);
      request.seed = seed;
      if (const json::Value* scenario = body.find("scenario")) {
        request.scenario = scenario->as_string("scenario");
      }
      if (const json::Value* suppression = body.find("suppression")) {
        request.suppression = suppression->as_string("suppression");
      }
      if (const json::Value* max_steps = body.find("max-steps")) {
        request.max_steps = max_steps->as_u64("max-steps");
      }
      validate(Request(request));
      return request;
    }
    case RequestKind::stats:
    case RequestKind::debug:
      break;  // handled above (payload-free)
  }
  throw InvalidArgument("unknown request kind");
}

Request parse_request(const std::string& line) {
  return parse_request(json::parse(line));
}

std::optional<RequestKind> named_kind(const json::Value& body) {
  const json::Value* kind_value = body.find("kind");
  if (kind_value == nullptr ||
      kind_value->type() != json::Value::Type::string) {
    return std::nullopt;
  }
  return parse_request_kind(kind_value->as_string("kind"));
}

std::string render_response(const Response& response,
                            const RenderOptions& options) {
  std::string out = "{\"id\": " + std::to_string(response.id);
  out += ", \"kind\": " + json_quoted(to_string(response.kind));
  if (!response.fingerprint.empty()) {
    out += ", \"fingerprint\": " + json_quoted(response.fingerprint);
  }
  if (!response.error.empty()) {
    out += ", \"error\": " + json_quoted(response.error);
  } else {
    out += ", ";
    if (response.safety.has_value()) {
      append_safety(out, *response.safety);
    } else if (response.ground_truth.has_value()) {
      append_ground_truth(out, *response.ground_truth, options.timings);
    } else if (response.repair.has_value()) {
      append_repair(out, *response.repair, options.timings);
    } else if (response.emulation.has_value()) {
      append_emulation(out, *response.emulation);
    } else if (response.sim.has_value()) {
      append_sim(out, *response.sim);
    } else if (response.stats.has_value()) {
      append_stats(out, *response.stats);
    } else if (response.debug.has_value()) {
      append_debug(out, *response.debug);
    } else {
      out += "\"result\": null";
    }
  }
  if (options.timings) {
    out += ", \"warm_session\": ";
    out += response.warm_session ? "true" : "false";
    if (response.shard >= 0) {
      // Scheduling provenance, like wall_ms: which worker shard served the
      // request. Timings-gated because it depends on --shards and policy.
      out += ", \"shard\": " + std::to_string(response.shard);
    }
    out += ", \"wall_ms\": " + util::format_fixed(response.wall_ms, 3);
  }
  out += "}";
  return out;
}

}  // namespace fsr::api::wire
