#include "api/request.h"

#include "obs/trace.h"
#include "util/error.h"
#include "util/strings.h"

namespace fsr::api {

const char* to_string(RequestKind kind) noexcept {
  switch (kind) {
    case RequestKind::analyze_safety:
      return "analyze-safety";
    case RequestKind::ground_truth:
      return "ground-truth";
    case RequestKind::repair:
      return "repair";
    case RequestKind::emulate:
      return "emulate";
    case RequestKind::simulate:
      return "simulate";
    case RequestKind::stats:
      return "stats";
    case RequestKind::debug:
      return "debug";
  }
  return "analyze-safety";
}

std::optional<RequestKind> parse_request_kind(const std::string& text) {
  if (text == "analyze-safety") return RequestKind::analyze_safety;
  if (text == "ground-truth") return RequestKind::ground_truth;
  if (text == "repair") return RequestKind::repair;
  if (text == "emulate") return RequestKind::emulate;
  if (text == "simulate") return RequestKind::simulate;
  if (text == "stats") return RequestKind::stats;
  if (text == "debug") return RequestKind::debug;
  return std::nullopt;
}

RequestKind kind_of(const Request& request) noexcept {
  struct Visitor {
    RequestKind operator()(const AnalyzeSafetyRequest&) const {
      return RequestKind::analyze_safety;
    }
    RequestKind operator()(const GroundTruthRequest&) const {
      return RequestKind::ground_truth;
    }
    RequestKind operator()(const RepairRequest&) const {
      return RequestKind::repair;
    }
    RequestKind operator()(const EmulateRequest&) const {
      return RequestKind::emulate;
    }
    RequestKind operator()(const SimulateRequest&) const {
      return RequestKind::simulate;
    }
    RequestKind operator()(const StatsRequest&) const {
      return RequestKind::stats;
    }
    RequestKind operator()(const DebugRequest&) const {
      return RequestKind::debug;
    }
  };
  return std::visit(Visitor{}, request);
}

void validate(const Request& request) {
  struct Visitor {
    void operator()(const AnalyzeSafetyRequest& req) const {
      const bool has_algebra = req.algebra != nullptr;
      const bool has_spp = req.spp != nullptr;
      if (has_algebra == has_spp) {
        throw InvalidArgument(
            "analyze-safety request needs exactly one of {algebra, spp}");
      }
    }
    void operator()(const GroundTruthRequest& req) const {
      if (req.spp == nullptr) {
        throw InvalidArgument("ground-truth request needs an SPP instance");
      }
    }
    void operator()(const RepairRequest& req) const {
      if (req.spp == nullptr) {
        throw InvalidArgument("repair request needs an SPP instance");
      }
    }
    void operator()(const EmulateRequest& req) const {
      const bool spp_shape = req.spp != nullptr && req.algebra == nullptr &&
                             req.topology == nullptr;
      const bool gpv_shape = req.spp == nullptr && req.algebra != nullptr &&
                             req.topology != nullptr;
      if (!spp_shape && !gpv_shape) {
        throw InvalidArgument(
            "emulate request needs an SPP instance, or an algebra plus a "
            "topology");
      }
    }
    void operator()(const SimulateRequest& req) const {
      if (req.spp == nullptr) {
        throw InvalidArgument("simulate request needs an SPP instance");
      }
      if (!sim::is_scenario_name(req.scenario)) {
        throw InvalidArgument("unknown simulation scenario '" + req.scenario +
                              "' (expected one of: steady, staged, "
                              "link-flap, session-reset)");
      }
      if (!sim::is_suppression_name(req.suppression)) {
        throw InvalidArgument("unknown suppression policy '" +
                              req.suppression +
                              "' (expected one of: none, split-horizon, "
                              "poisoned-reverse)");
      }
      if (req.max_steps.has_value() && *req.max_steps == 0) {
        throw InvalidArgument("simulate max-steps must be >= 1");
      }
    }
    void operator()(const StatsRequest&) const {}  // no payload to check
    void operator()(const DebugRequest&) const {}  // no payload to check
  };
  std::visit(Visitor{}, request);
}

namespace {

/// The one payload canonicalisation: the SPP instance when the request
/// carries one, else the algebra with its topology when present. Safe on
/// malformed shapes, so an invalid request still has a content identity
/// to key by.
std::string payload_canonical(const spp::SppInstance* instance,
                              const algebra::RoutingAlgebra* algebra,
                              const topology::Topology* topology) {
  if (instance != nullptr) return spp::canonical_spp(*instance);
  if (algebra == nullptr) return std::string();
  std::string out = "alg|" + algebra->name() + "|" +
                    algebra::canonical_spec(algebra->symbolic());
  if (topology != nullptr) {
    out += "|topo|" + topology::canonical_topology(*topology);
  }
  return out;
}

std::string payload_canonical(const Request& request) {
  struct Visitor {
    std::string operator()(const AnalyzeSafetyRequest& req) const {
      return payload_canonical(req.spp.get(), req.algebra.get(), nullptr);
    }
    std::string operator()(const GroundTruthRequest& req) const {
      return payload_canonical(req.spp.get(), nullptr, nullptr);
    }
    std::string operator()(const RepairRequest& req) const {
      return payload_canonical(req.spp.get(), nullptr, nullptr);
    }
    std::string operator()(const EmulateRequest& req) const {
      return payload_canonical(req.spp.get(), req.algebra.get(),
                               req.topology.get());
    }
    std::string operator()(const SimulateRequest& req) const {
      return payload_canonical(req.spp.get(), nullptr, nullptr);
    }
    std::string operator()(const StatsRequest&) const { return std::string(); }
    std::string operator()(const DebugRequest&) const { return std::string(); }
  };
  return std::visit(Visitor{}, request);
}

}  // namespace

CompiledRequest compile(Request request) {
  static obs::Counter& compilations =
      obs::registry().counter("api.compilations");
  compilations.add(1);
  obs::Span span("api.compile");
  CompiledRequest compiled;
  compiled.request_ = std::move(request);
  try {
    // Canonical first: an invalid request keeps the identity of whatever
    // payload it does carry, and the error is validate()'s message.
    compiled.canonical_ = payload_canonical(compiled.request_);
    validate(compiled.request_);
  } catch (const std::exception& error) {
    compiled.error_ = error.what();
  }
  // Stats and debug requests carry no payload: an empty fingerprint keeps
  // them away from the session cache (nothing to warm, nothing to evict).
  if (compiled.error_.empty() && !compiled.canonical_.empty()) {
    compiled.fingerprint_ = util::content_digest(compiled.canonical_);
  }
  return compiled;
}

std::string fingerprint(const Request& request) {
  CompiledRequest compiled = compile(request);
  if (!compiled.error().empty()) throw InvalidArgument(compiled.error());
  return compiled.fingerprint();
}

}  // namespace fsr::api
