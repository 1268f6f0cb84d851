// The fsr_serve wire protocol: JSON-lines requests in, JSON-lines
// responses out.
//
// One request object per input line. Schema:
//
//   {"kind": K, <payload>, ["seed": N], ["mode": M], ["scenario": S],
//    ["max-steps": N]}
//
//   K        — "analyze-safety" | "ground-truth" | "repair" | "emulate"
//              | "simulate" | "stats" | "debug"
//   payload  — exactly one of (none for "stats", which takes no payload
//              and answers live service counters + the obs registry
//              snapshot, and none for "debug", which drains the installed
//              flight recorder's recent-event history; fsr_serve drains
//              all earlier requests first for both, so their values
//              summarise everything before them in the stream)
//     "gadget": NAME          library gadget (spp::gadget_by_name: good,
//                             bad, disagree, ibgp-figure3,
//                             ibgp-figure3-fixed, good-chain-N,
//                             bad-chain-N)
//     "policy": NAME          standard policy algebra (analyze-safety
//                             only): guideline-a, guideline-b, backup,
//                             bandwidth, widest-shortest,
//                             gao-rexford-hop-count
//     "random": {"seed": N, ...}
//                             seeded random SPP instance (campaign fuzz
//                             generator; optional min_nodes, max_nodes,
//                             paths_per_node, max_path_length)
//     "spp": {"destination": D, "edges": [[U,V],...],
//             "paths": [[hop,...],...], ["name": S]}
//                             inline instance; paths are added in ranked
//                             order (earlier = more preferred at their
//                             source node)
//   "seed"   — emulation seed, or simulation seed (link delays + churn
//              schedule); optional, and accepted but ignored on the
//              kinds that draw no randomness (analyze-safety,
//              ground-truth, repair)
//   "mode"   — ground-truth oracle override: "sat-search" | "enumerate"
//   "scenario" — simulate only: churn scenario, one of "steady" (default)
//              | "staged" | "link-flap" | "session-reset"
//   "max-steps" — simulate only: event-budget override (>= 1)
//
// See docs/WIRE.md for the full request/response reference.
//
// Responses are one object per line, in request order, with fixed field
// order and formatting — byte-identical for a fixed request stream and
// ServiceOptions, regardless of --threads (the service determinism
// contract). Deterministic fields only, unless RenderOptions.timings adds
// execution provenance (warm_session, wall_ms, solver effort counters).
// The exceptions are "stats" and "debug": their schema and field order
// are fixed, but their VALUES are live execution state by design —
// counters such as warm_hits depend on which worker served what, the
// registry snapshot includes wall-clock histograms, and recorder events
// carry timestamps and thread ids — so those two kinds make no
// byte-reproducibility promise at all. Filter them out before diffing
// streams (as the CI smoke does).
#ifndef FSR_API_WIRE_H
#define FSR_API_WIRE_H

#include <optional>
#include <string>

#include "api/json.h"
#include "api/request.h"

namespace fsr::api::wire {

/// Decodes one parsed request object; throws fsr::InvalidArgument on
/// schema violations (fsr_serve answers those with an error response).
Request parse_request(const json::Value& body);

/// Parses one request line and decodes it: parse_request(json::parse(line)).
/// Throws fsr::InvalidArgument on malformed JSON too.
Request parse_request(const std::string& line);

/// The request kind `body` names as a known kind string, else nullopt:
/// the best-effort kind attribution of an in-band error response.
std::optional<RequestKind> named_kind(const json::Value& body);

struct RenderOptions {
  /// Adds the scheduling-dependent provenance fields. Output is then no
  /// longer byte-stable across thread counts or cache temperature.
  bool timings = false;
};

/// Renders one response as a single JSON line (no trailing newline).
std::string render_response(const Response& response,
                            const RenderOptions& options = {});

}  // namespace fsr::api::wire

#endif  // FSR_API_WIRE_H
