// Tests for the fsr::api service façade: typed request validation and
// fingerprints, the JSON wire protocol, and the service's two core
// contracts — responses byte-identical to serial execution for any pool
// size and any client-thread interleaving, and warm-session reuse that
// never changes deterministic bytes (only provenance).
//
// Runs under the `service` ctest label.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/json.h"
#include "api/request.h"
#include "api/service.h"
#include "api/wire.h"
#include "fsr/incremental_session.h"
#include "groundtruth/stable_sat.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "repair/repair_engine.h"
#include "spp/gadgets.h"
#include "spp/translate.h"
#include "util/error.h"
#include "util/strings.h"

namespace fsr::api {
namespace {

std::shared_ptr<const spp::SppInstance> shared_gadget(const std::string& name) {
  return std::make_shared<const spp::SppInstance>(spp::gadget_by_name(name));
}

/// A mixed batch exercising every request kind, with duplicated content so
/// pooled runs hit warm sessions on SOME schedule.
std::vector<Request> mixed_batch() {
  std::vector<Request> requests;
  for (const char* name : {"bad", "disagree", "good", "bad-chain-4"}) {
    requests.push_back(GroundTruthRequest{shared_gadget(name), {}});
    requests.push_back(RepairRequest{shared_gadget(name)});
    requests.push_back(AnalyzeSafetyRequest{nullptr, shared_gadget(name)});
  }
  // Duplicates of earlier content (fresh shared_ptrs on purpose: identity
  // comes from the fingerprint, not the pointer).
  requests.push_back(GroundTruthRequest{shared_gadget("bad"), {}});
  requests.push_back(RepairRequest{shared_gadget("bad-chain-4")});
  requests.push_back(
      GroundTruthRequest{shared_gadget("good"), groundtruth::Mode::enumerate});
  EmulateRequest emulate;
  emulate.spp = shared_gadget("good");
  emulate.seed = 7;
  requests.push_back(emulate);
  // Simulations, convergent and oscillating, interleaved with the solver
  // kinds — the same mix the CI serve smoke byte-diffs across pool sizes.
  SimulateRequest sim_good;
  sim_good.spp = shared_gadget("good");
  sim_good.seed = 7;
  requests.push_back(sim_good);
  SimulateRequest sim_bad;
  sim_bad.spp = shared_gadget("bad");
  sim_bad.seed = 7;
  sim_bad.scenario = "staged";
  requests.push_back(sim_bad);
  return requests;
}

/// Deterministic rendering of a response: the id is zeroed because it
/// encodes submission ORDER, which multi-client submission legitimately
/// permutes — everything else must be schedule-independent.
std::string deterministic_bytes(Response response) {
  response.id = 0;
  return wire::render_response(response);
}

// ------------------------------------------------------- request basics --

TEST(Request, KindsRoundTripTheirWireNames) {
  for (const RequestKind kind :
       {RequestKind::analyze_safety, RequestKind::ground_truth,
        RequestKind::repair, RequestKind::emulate, RequestKind::simulate,
        RequestKind::stats, RequestKind::debug}) {
    EXPECT_EQ(parse_request_kind(to_string(kind)), kind);
  }
  EXPECT_FALSE(parse_request_kind("nonsense").has_value());
}

TEST(Request, ValidationRejectsMalformedShapes) {
  EXPECT_THROW(validate(Request(AnalyzeSafetyRequest{})), InvalidArgument);
  EXPECT_THROW(validate(Request(GroundTruthRequest{})), InvalidArgument);
  EXPECT_THROW(validate(Request(RepairRequest{})), InvalidArgument);
  EXPECT_THROW(validate(Request(EmulateRequest{})), InvalidArgument);
  AnalyzeSafetyRequest both;
  both.spp = shared_gadget("bad");
  both.algebra = spp::algebra_from_spp(*both.spp);
  EXPECT_THROW(validate(Request(both)), InvalidArgument);
}

TEST(Request, FingerprintIsKindFreeAndSeedFreeContentIdentity) {
  const Request truth = GroundTruthRequest{shared_gadget("bad"), {}};
  const Request repair_a = RepairRequest{shared_gadget("bad")};
  const Request repair_b = RepairRequest{shared_gadget("bad")};
  const Request other = RepairRequest{shared_gadget("disagree")};
  SimulateRequest simulate_a;
  simulate_a.spp = shared_gadget("bad");
  simulate_a.seed = 1;
  SimulateRequest simulate_b = simulate_a;
  simulate_b.seed = 99;
  // Kind-free: every kind over one instance shares one fingerprint.
  EXPECT_EQ(fingerprint(truth), fingerprint(repair_a));
  EXPECT_EQ(fingerprint(repair_a), fingerprint(Request(simulate_a)));
  // Seed-free: the seed is request identity, not content identity.
  EXPECT_EQ(fingerprint(Request(simulate_a)), fingerprint(Request(simulate_b)));
  // Content identity: distinct payload objects, same content.
  EXPECT_EQ(fingerprint(repair_a), fingerprint(repair_b));
  EXPECT_NE(fingerprint(repair_a), fingerprint(other));
}

// ------------------------------------------------------------- json/wire --

TEST(Json, ParsesTheWireSubset) {
  const json::Value value = json::parse(
      R"({"kind": "repair", "seed": 42, "deep": {"list": [1, 2.5, "x\n", true, null]}})");
  ASSERT_NE(value.find("kind"), nullptr);
  EXPECT_EQ(value.find("kind")->as_string("kind"), "repair");
  EXPECT_EQ(value.find("seed")->as_u64("seed"), 42u);
  const json::Value* list = value.find("deep")->find("list");
  ASSERT_NE(list, nullptr);
  const auto& items = list->as_array("list");
  ASSERT_EQ(items.size(), 5u);
  EXPECT_EQ(items[0].as_u64("0"), 1u);
  EXPECT_DOUBLE_EQ(items[1].as_number("1"), 2.5);
  EXPECT_EQ(items[2].as_string("2"), "x\n");
  EXPECT_TRUE(items[3].as_bool("3"));
  EXPECT_TRUE(items[4].is_null());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), InvalidArgument);
  EXPECT_THROW(json::parse("{\"a\": }"), InvalidArgument);
  EXPECT_THROW(json::parse("[1,]"), InvalidArgument);
  EXPECT_THROW(json::parse("\"unterminated"), InvalidArgument);
  EXPECT_THROW(json::parse("{} trailing"), InvalidArgument);
  EXPECT_THROW(json::parse("tru"), InvalidArgument);
  // Type mismatches surface as InvalidArgument too.
  EXPECT_THROW(json::parse("3.5").as_u64("x"), InvalidArgument);
  EXPECT_THROW(json::parse("-2").as_u64("x"), InvalidArgument);
  // An integer past 2^64 - 1 is refused, not clamped to the largest u64.
  EXPECT_EQ(json::parse("18446744073709551615").as_u64("x"),
            18446744073709551615ull);
  EXPECT_THROW(json::parse("18446744073709551616").as_u64("x"),
               InvalidArgument);
  EXPECT_THROW(json::parse("99999999999999999999999").as_u64("x"),
               InvalidArgument);
  // Nesting is bounded, so a long line of '[' is an error, not a stack
  // overflow; the deepest allowed nesting still parses.
  EXPECT_THROW(json::parse(std::string(800000, '[')), InvalidArgument);
  EXPECT_THROW(json::parse(std::string(json::k_max_depth + 1, '[') +
                           std::string(json::k_max_depth + 1, ']')),
               InvalidArgument);
  EXPECT_NO_THROW(json::parse(std::string(json::k_max_depth, '[') +
                              std::string(json::k_max_depth, ']')));
}

TEST(Wire, ParsesEveryPayloadShape) {
  EXPECT_EQ(kind_of(wire::parse_request(
                R"({"kind": "ground-truth", "gadget": "bad"})")),
            RequestKind::ground_truth);
  EXPECT_EQ(kind_of(wire::parse_request(
                R"({"kind": "analyze-safety", "policy": "guideline-a"})")),
            RequestKind::analyze_safety);
  EXPECT_EQ(kind_of(wire::parse_request(
                R"({"kind": "repair", "random": {"seed": 3}, "seed": 9})")),
            RequestKind::repair);
  EXPECT_EQ(kind_of(wire::parse_request(
                R"({"kind": "emulate", "gadget": "good", "seed": 7})")),
            RequestKind::emulate);
  const Request simulate = wire::parse_request(
      R"({"kind": "simulate", "gadget": "bad", "seed": 3,)"
      R"( "scenario": "link-flap", "suppression": "split-horizon",)"
      R"( "max-steps": 500})");
  EXPECT_EQ(kind_of(simulate), RequestKind::simulate);
  const auto& sim = std::get<SimulateRequest>(simulate);
  EXPECT_EQ(sim.seed, 3u);
  EXPECT_EQ(sim.scenario, "link-flap");
  EXPECT_EQ(sim.suppression, "split-horizon");
  EXPECT_EQ(sim.max_steps, std::optional<std::uint64_t>(500));
  // Omitted => the SPVP default, exactly like scenario.
  const SimulateRequest defaulted =
      std::get<SimulateRequest>(wire::parse_request(
          R"({"kind": "simulate", "gadget": "bad", "seed": 3})"));
  EXPECT_EQ(defaulted.suppression, "none");
}

TEST(Wire, RepairSeedIsAcceptedAndIgnored) {
  // Repair draws no randomness, so a "seed" on a repair line decodes (old
  // clients keep working) and changes nothing: every spelling is the same
  // request and answers with the same bytes (a fresh service per line, so
  // the response ids match too).
  std::vector<std::string> rendered;
  for (const char* line :
       {R"({"kind": "repair", "gadget": "bad", "seed": 1})",
        R"({"kind": "repair", "gadget": "bad", "seed": 99})",
        R"({"kind": "repair", "gadget": "bad"})"}) {
    SCOPED_TRACE(line);
    const Request request = wire::parse_request(line);
    ASSERT_EQ(kind_of(request), RequestKind::repair);
    EXPECT_EQ(fingerprint(request),
              fingerprint(Request(RepairRequest{shared_gadget("bad")})));
    const Response response = AnalysisService().call(request);
    ASSERT_TRUE(response.error.empty()) << response.error;
    rendered.push_back(wire::render_response(response));
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_EQ(rendered[0], rendered[2]);
  EXPECT_EQ(rendered[0].find("spvp"), std::string::npos) << rendered[0];
}

TEST(Wire, InlineSppMatchesTheLibraryGadgetFingerprint) {
  // The DISAGREE gadget spelled inline must canonicalize to the same
  // content identity as the library instance, name notwithstanding.
  const Request inline_request = wire::parse_request(R"({
      "kind": "ground-truth",
      "spp": {"name": "my-disagree", "destination": "0",
              "edges": [["1", "0"], ["2", "0"], ["1", "2"]],
              "paths": [["1", "2", "0"], ["1", "0"],
                        ["2", "1", "0"], ["2", "0"]]}})");
  const Request library_request =
      Request(GroundTruthRequest{shared_gadget("disagree"), {}});
  EXPECT_EQ(fingerprint(inline_request), fingerprint(library_request));
}

TEST(Wire, SchemaViolationsThrow) {
  EXPECT_THROW(wire::parse_request("not json"), InvalidArgument);
  EXPECT_THROW(wire::parse_request(R"({"gadget": "bad"})"), InvalidArgument);
  EXPECT_THROW(wire::parse_request(R"({"kind": "bogus", "gadget": "bad"})"),
               InvalidArgument);
  EXPECT_THROW(wire::parse_request(R"({"kind": "repair"})"), InvalidArgument);
  EXPECT_THROW(
      wire::parse_request(R"({"kind": "repair", "gadget": "no-such"})"),
      InvalidArgument);
  // Chain counts are all digits and at most spp::k_max_chain_count: a
  // count with trailing bytes names no gadget, and an overflowing or huge
  // count would pin a worker building an enormous chain.
  for (const char* name :
       {"bad-chain-99999999999", "bad-chain-3000000", "bad-chain-12abc",
        "bad-chain-257", "good-chain-0", "bad-chain--1", "bad-chain-"}) {
    EXPECT_THROW(wire::parse_request(std::string(R"({"kind": "repair", )") +
                                     R"("gadget": ")" + name + R"("})"),
                 InvalidArgument)
        << name;
  }
  EXPECT_NO_THROW(wire::parse_request(
      R"({"kind": "repair", "gadget": "bad-chain-256"})"));
  EXPECT_THROW(wire::parse_request(
                   R"({"kind": "repair", "gadget": "bad", "policy": "backup"})"),
               InvalidArgument);
  EXPECT_THROW(
      wire::parse_request(
          R"({"kind": "ground-truth", "gadget": "bad", "mode": "magic"})"),
      InvalidArgument);
  // A path listed twice at its source has no single rank.
  EXPECT_THROW(wire::parse_request(
                   R"({"kind": "analyze-safety", "spp": {"edges": )"
                   R"([["a", "0"], ["b", "0"]], "paths": )"
                   R"([["a", "0"], ["a", "0"], ["b", "0"]]}})"),
               InvalidArgument);
  // Node names may not be empty or carry a rendering separator: "" once
  // answered simulate with "b": "b--0", and "a-b" renders like a path.
  EXPECT_THROW(wire::parse_request(
                   R"({"kind": "simulate", "spp": {"edges": )"
                   R"([["", "0"], ["b", ""]], "paths": )"
                   R"([["", "0"], ["b", "", "0"]]}})"),
               InvalidArgument);
  EXPECT_THROW(wire::parse_request(
                   R"({"kind": "analyze-safety", "spp": {"edges": )"
                   R"([["a-b", "0"]], "paths": [["a-b", "0"]]}})"),
               InvalidArgument);
  // Random sizes must fit the sweep's int32 fields, not wrap (4294967300
  // once became a 4-node instance).
  EXPECT_THROW(wire::parse_request(
                   R"({"kind": "analyze-safety", "random": {"seed": 3,)"
                   R"( "min_nodes": 4294967300, "max_nodes": 4294967300}})"),
               InvalidArgument);
  EXPECT_THROW(wire::parse_request(
                   R"({"kind": "repair", "random": {"seed": 3,)"
                   R"( "paths_per_node": 2147483648}})"),
               InvalidArgument);
  // A seed that does not fit in a u64 is an error, not a request for the
  // largest u64 seed.
  EXPECT_THROW(wire::parse_request(
                   R"({"kind": "repair", "random": {"seed": 18446744073709551616}})"),
               InvalidArgument);
  EXPECT_THROW(wire::parse_request(
                   R"({"kind": "emulate", "gadget": "good", "seed": 99999999999999999999999})"),
               InvalidArgument);
  // Simulate-only fields are validated, not silently defaulted.
  EXPECT_THROW(validate(wire::parse_request(
                   R"({"kind": "simulate", "gadget": "bad",)"
                   R"( "scenario": "earthquake"})")),
               InvalidArgument);
  EXPECT_THROW(validate(wire::parse_request(
                   R"({"kind": "simulate", "gadget": "bad",)"
                   R"( "suppression": "route-dampening"})")),
               InvalidArgument);
  EXPECT_THROW(validate(wire::parse_request(
                   R"({"kind": "simulate", "gadget": "bad",)"
                   R"( "max-steps": 0})")),
               InvalidArgument);
}

TEST(Service, SimulateSuppressionRoundTripsThroughTheWire) {
  AnalysisService service;
  for (const std::string& policy : sim::suppression_names()) {
    SimulateRequest request;
    request.spp = shared_gadget("good");
    request.seed = 7;
    request.suppression = policy;
    const Response response = service.call(request);
    ASSERT_TRUE(response.sim.has_value()) << policy;
    EXPECT_EQ(response.sim->suppression, policy);
    const std::string rendered = wire::render_response(response);
    EXPECT_NE(rendered.find("\"suppression\": \"" + policy + "\""),
              std::string::npos)
        << rendered;
  }
}

TEST(Service, SimulateCutoffRendersNoFixedPoint) {
  // A budget-cut run must say so on the wire — and must not pass off its
  // mid-flight selections as a fixed point (WIRE.md's cutoff contract).
  AnalysisService service;
  SimulateRequest request;
  request.spp = shared_gadget("bad");
  request.seed = 3;
  request.max_steps = 3;
  const Response response = service.call(request);
  ASSERT_TRUE(response.sim.has_value());
  EXPECT_TRUE(response.sim->cutoff);
  const std::string rendered = wire::render_response(response);
  EXPECT_NE(rendered.find("\"cutoff\": true"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("\"fixed_point_stable\": false"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("\"fixed_point\": {}"), std::string::npos)
      << rendered;
}

TEST(Wire, UnknownKindErrorNamesTheValidKinds) {
  // fsr_serve turns this throw into an in-band {"error": ...} line, so the
  // message must let a client fix the request without reading the source.
  try {
    wire::parse_request(R"({"kind": "simulat", "gadget": "bad"})");
    FAIL() << "unknown kind parsed";
  } catch (const InvalidArgument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown request kind 'simulat'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("simulate"), std::string::npos) << message;
    EXPECT_NE(message.find("analyze-safety"), std::string::npos) << message;
  }
}

TEST(Wire, TimingsAreOptInProvenance) {
  AnalysisService service;
  const Response response =
      service.call(GroundTruthRequest{shared_gadget("bad"), {}});
  const std::string plain = wire::render_response(response);
  EXPECT_EQ(plain.find("wall_ms"), std::string::npos);
  EXPECT_EQ(plain.find("warm_session"), std::string::npos);
  EXPECT_EQ(plain.find("conflicts"), std::string::npos);
  wire::RenderOptions timed;
  timed.timings = true;
  const std::string with_timings = wire::render_response(response, timed);
  EXPECT_NE(with_timings.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(with_timings.find("\"warm_session\""), std::string::npos);
}

// ------------------------------------------------------ service contracts --

TEST(Service, AnswersEveryKindAndErrorsStayInBand) {
  AnalysisService service;
  const Response truth =
      service.call(GroundTruthRequest{shared_gadget("bad"), {}});
  ASSERT_TRUE(truth.ground_truth.has_value());
  EXPECT_TRUE(truth.ground_truth->decided);
  EXPECT_FALSE(truth.ground_truth->has_stable);

  const Response safety =
      service.call(AnalyzeSafetyRequest{nullptr, shared_gadget("good")});
  ASSERT_TRUE(safety.safety.has_value());
  EXPECT_EQ(safety.safety->verdict, SafetyVerdict::safe);

  const Response repair = service.call(RepairRequest{shared_gadget("bad")});
  ASSERT_TRUE(repair.repair.has_value());
  EXPECT_TRUE(repair.repair->repaired());

  EmulateRequest emulate;
  emulate.spp = shared_gadget("good");
  emulate.seed = 7;
  const Response emulated = service.call(emulate);
  ASSERT_TRUE(emulated.emulation.has_value());
  EXPECT_TRUE(emulated.emulation->quiesced);

  SimulateRequest simulate;
  simulate.spp = shared_gadget("good");
  simulate.seed = 7;
  const Response simulated = service.call(simulate);
  ASSERT_TRUE(simulated.sim.has_value());
  EXPECT_TRUE(simulated.sim->converged);
  EXPECT_TRUE(simulated.sim->fixed_point_stable);
  // Content identity is shared with the solver kinds over the same
  // instance — but a repeat is NEVER served warm (the simulator keeps no
  // solver state worth caching).
  EXPECT_EQ(simulated.fingerprint,
            fingerprint(Request(GroundTruthRequest{shared_gadget("good"), {}})));
  EXPECT_FALSE(service.call(simulate).warm_session);

  // A malformed request resolves its future with an in-band error.
  const Response failed = service.call(Request(RepairRequest{}));
  EXPECT_FALSE(failed.error.empty());
  EXPECT_FALSE(failed.repair.has_value());
  EXPECT_GE(service.stats().errors, 1u);
}

TEST(Service, PerRequestModeOverridesTheDefaultOracle) {
  AnalysisService service;
  const Response enumerated = service.call(
      GroundTruthRequest{shared_gadget("disagree"), groundtruth::Mode::enumerate});
  ASSERT_TRUE(enumerated.ground_truth.has_value());
  EXPECT_TRUE(enumerated.ground_truth->decided);
  EXPECT_EQ(enumerated.ground_truth->count, 2u);
  EXPECT_GT(enumerated.ground_truth->states_scanned, 0u);  // enumerate ran
}

TEST(Service, WarmGroundTruthAgreesWithTheScratchEngineEverywhere) {
  // Warm-session answers must carry the exact deterministic fields of the
  // one-shot engine — the byte-stability the whole reuse design rests on.
  AnalysisService service;
  const auto engine = groundtruth::make_engine(groundtruth::Mode::sat_search);
  for (const char* name :
       {"good", "bad", "disagree", "ibgp-figure3", "ibgp-figure3-fixed",
        "bad-chain-4", "bad-chain-8"}) {
    const auto instance = shared_gadget(name);
    // Twice per instance: the second answer comes from the warm session.
    for (int round = 0; round < 2; ++round) {
      const Response response =
          service.call(GroundTruthRequest{instance, {}});
      ASSERT_TRUE(response.ground_truth.has_value()) << name;
      const groundtruth::Result scratch = engine->analyze(*instance);
      EXPECT_EQ(response.ground_truth->decided, scratch.decided) << name;
      EXPECT_EQ(response.ground_truth->has_stable, scratch.has_stable) << name;
      EXPECT_EQ(response.ground_truth->count, scratch.count) << name;
      EXPECT_EQ(response.ground_truth->count_exact, scratch.count_exact)
          << name;
      EXPECT_EQ(response.ground_truth->witness, scratch.witness) << name;
    }
  }
}

TEST(Service, BudgetStoppedGroundTruthAnswersFallBackToColdBytes) {
  // 7 independent DISAGREE pairs sharing the destination: 2^7 = 128 stable
  // assignments, past the 64-solution enumeration bound — so WHICH subset
  // a capped enumeration finds follows the solver's search order, which
  // warm learned clauses would perturb. The service must detect the
  // budget stop and recompute on a fresh session instead of serving
  // order-dependent warm bytes.
  auto chain = std::make_shared<spp::SppInstance>("disagree-chain", "0");
  for (int k = 0; k < 7; ++k) {
    const std::string a = "a" + std::to_string(k);
    const std::string b = "b" + std::to_string(k);
    chain->add_edge(a, "0");
    chain->add_edge(b, "0");
    chain->add_edge(a, b);
    chain->add_permitted_path({a, b, "0"});
    chain->add_permitted_path({a, "0"});
    chain->add_permitted_path({b, a, "0"});
    chain->add_permitted_path({b, "0"});
  }
  const std::shared_ptr<const spp::SppInstance> instance = std::move(chain);

  AnalysisService service;  // threads = 1: the second request WOULD be warm
  const Response cold = service.call(GroundTruthRequest{instance, {}});
  ASSERT_TRUE(cold.ground_truth.has_value());
  EXPECT_FALSE(cold.ground_truth->count_exact);
  EXPECT_EQ(cold.ground_truth->budget_stop,
            groundtruth::BudgetStop::solutions);
  const Response repeat = service.call(GroundTruthRequest{instance, {}});
  EXPECT_FALSE(repeat.warm_session);  // warmth declined, not just unreported
  EXPECT_EQ(deterministic_bytes(cold), deterministic_bytes(repeat));
}

TEST(Service, SecondIdenticalFingerprintRequestReportsAWarmHit) {
  AnalysisService service;  // threads = 1: scheduling is deterministic
  const Response cold = service.call(RepairRequest{shared_gadget("bad")});
  const Response warm = service.call(RepairRequest{shared_gadget("bad")});
  EXPECT_FALSE(cold.warm_session);
  EXPECT_TRUE(warm.warm_session);
  // Warmth is provenance only: deterministic bytes must not move.
  EXPECT_EQ(deterministic_bytes(cold), deterministic_bytes(warm));

  const Response truth_cold =
      service.call(GroundTruthRequest{shared_gadget("disagree"), {}});
  const Response truth_warm =
      service.call(GroundTruthRequest{shared_gadget("disagree"), {}});
  EXPECT_FALSE(truth_cold.warm_session);
  EXPECT_TRUE(truth_warm.warm_session);
  EXPECT_EQ(deterministic_bytes(truth_cold), deterministic_bytes(truth_warm));

  // Kinds share the entry: the repair above already built bad's oracle, so
  // a ground-truth request on the same content starts warm.
  const Response cross = service.call(GroundTruthRequest{shared_gadget("bad"), {}});
  EXPECT_TRUE(cross.warm_session);
  EXPECT_GE(service.stats().warm_hits, 3u);
}

TEST(Service, SessionCacheCapacityBoundsAndEvicts) {
  ServiceOptions options;
  options.session_cache_capacity = 1;
  AnalysisService service(options);
  // Alternating fingerprints under capacity 1: every request evicts the
  // other's entry, so nothing is ever warm.
  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(
        service.call(GroundTruthRequest{shared_gadget("bad"), {}}).warm_session);
    EXPECT_FALSE(service.call(GroundTruthRequest{shared_gadget("disagree"), {}})
                     .warm_session);
  }
  EXPECT_EQ(service.stats().warm_hits, 0u);
  EXPECT_GE(service.stats().sessions_evicted, 2u);

  // Capacity 0 disables reuse outright.
  ServiceOptions disabled;
  disabled.session_cache_capacity = 0;
  AnalysisService cold_service(disabled);
  cold_service.call(GroundTruthRequest{shared_gadget("bad"), {}});
  EXPECT_FALSE(cold_service.call(GroundTruthRequest{shared_gadget("bad"), {}})
                   .warm_session);
}

TEST(Service, BorrowedSessionsMatchSelfBuiltReportBytes) {
  // The RepairSessions contract, head on: a report computed against
  // caller-owned (then reused, warm) sessions is byte-identical to the
  // engine building everything itself — including the already-safe gate
  // path ("good") and the oracle-heavy chains.
  const repair::RepairEngine engine;
  for (const char* name : {"good", "bad", "disagree", "ibgp-figure3",
                           "bad-chain-4", "bad-chain-8"}) {
    const spp::SppInstance instance = spp::gadget_by_name(name);
    const std::string self_built = repair::to_json(engine.repair(instance));

    // The service's cold path: one translation builds the gate and is
    // lent to the search; the warm path lends no spec.
    const algebra::SymbolicSpec spec =
        spp::algebra_from_spp(instance)->symbolic();
    IncrementalSafetySession::Options gate_options;
    gate_options.extract_models = false;
    IncrementalSafetySession gate(spec, MonotonicityMode::strict,
                                  gate_options);
    groundtruth::StableSatSession oracle(instance);
    repair::RepairSessions sessions;
    sessions.strict_gate = &gate;
    sessions.oracle = &oracle;
    sessions.spec = &spec;
    EXPECT_EQ(repair::to_json(engine.repair(instance, sessions)),
              self_built)
        << name << " (cold borrowed sessions, lent spec)";
    sessions.spec = nullptr;
    EXPECT_EQ(repair::to_json(engine.repair(instance, sessions)),
              self_built)
        << name << " (warm borrowed sessions)";
  }
}

/// Registry deltas of the two stages a request compiles once: content
/// identity ("api.compilations") and SPP translation ("spp.translations").
struct CompileCounts {
  std::uint64_t compilations = 0;
  std::uint64_t translations = 0;
};

CompileCounts compile_counts() {
  return {obs::registry().counter("api.compilations").value(),
          obs::registry().counter("spp.translations").value()};
}

/// The counts one call() costs on `service`.
CompileCounts counts_of_call(AnalysisService& service, Request request) {
  const CompileCounts before = compile_counts();
  const Response response = service.call(std::move(request));
  EXPECT_TRUE(response.error.empty()) << response.error;
  const CompileCounts after = compile_counts();
  return {after.compilations - before.compilations,
          after.translations - before.translations};
}

TEST(Service, EachRequestCompilesOnceAndTranslatesAtMostOnce) {
  AnalysisService service;  // threads = 1: the repeat is served warm
  // A cold repair translates once: the spec that builds the strict gate
  // is lent to the search.
  const CompileCounts cold =
      counts_of_call(service, RepairRequest{shared_gadget("bad")});
  EXPECT_EQ(cold.compilations, 1u);
  EXPECT_EQ(cold.translations, 1u);
  // A warm repair reuses the gate; only the search translates.
  const CompileCounts warm =
      counts_of_call(service, RepairRequest{shared_gadget("bad")});
  EXPECT_EQ(warm.compilations, 1u);
  EXPECT_EQ(warm.translations, 1u);
  // SPP safety analysis translates once, for the analyzer.
  const CompileCounts safety = counts_of_call(
      service, AnalyzeSafetyRequest{nullptr, shared_gadget("disagree")});
  EXPECT_EQ(safety.compilations, 1u);
  EXPECT_EQ(safety.translations, 1u);
  // Ground truth and simulation never translate.
  const CompileCounts truth = counts_of_call(
      service, GroundTruthRequest{shared_gadget("disagree"), {}});
  EXPECT_EQ(truth.compilations, 1u);
  EXPECT_EQ(truth.translations, 0u);
  SimulateRequest simulate;
  simulate.spp = shared_gadget("disagree");
  const CompileCounts simulated = counts_of_call(service, simulate);
  EXPECT_EQ(simulated.compilations, 1u);
  EXPECT_EQ(simulated.translations, 0u);
}

TEST(Service, CompiledRequestCarriesTheFingerprintAndTheValidationError) {
  const CompiledRequest valid = compile(RepairRequest{shared_gadget("bad")});
  EXPECT_TRUE(valid.error().empty());
  EXPECT_EQ(valid.canonical(), spp::canonical_spp(spp::bad_gadget()));
  EXPECT_EQ(valid.fingerprint(), util::content_digest(valid.canonical()));
  EXPECT_EQ(valid.fingerprint(),
            fingerprint(Request(GroundTruthRequest{shared_gadget("bad"), {}})));

  // An invalid request keeps the canonical text of the payload it carries
  // but gets no fingerprint; fingerprint() still throws on it.
  SimulateRequest bogus;
  bogus.spp = shared_gadget("bad");
  bogus.scenario = "bogus";
  const CompiledRequest invalid = compile(bogus);
  EXPECT_FALSE(invalid.error().empty());
  EXPECT_EQ(invalid.canonical(), valid.canonical());
  EXPECT_EQ(invalid.fingerprint(), "");
  EXPECT_THROW(fingerprint(Request(bogus)), InvalidArgument);

  // Submitting the compiled request answers exactly like submitting the
  // plain one.
  AnalysisService service;
  std::promise<Response> answered;
  service.submit(compile(RepairRequest{shared_gadget("bad")}),
                 [&answered](Response response) {
                   answered.set_value(std::move(response));
                 });
  const Response compiled_answer = answered.get_future().get();
  AnalysisService fresh;
  const Response plain_answer = fresh.call(RepairRequest{shared_gadget("bad")});
  EXPECT_EQ(deterministic_bytes(compiled_answer),
            deterministic_bytes(plain_answer));
}

TEST(Service, InvalidRequestsAnswerInBandWithTheirValidationError) {
  // Every malformed shape answers through call() with its exact
  // validation text, its kind, no fingerprint and no payload, and counts
  // one error.
  AnalyzeSafetyRequest both;
  both.spp = shared_gadget("bad");
  both.algebra = spp::algebra_from_spp(*both.spp);
  SimulateRequest no_spp;
  SimulateRequest bad_scenario;
  bad_scenario.spp = shared_gadget("bad");
  bad_scenario.scenario = "bogus";
  SimulateRequest bad_suppression;
  bad_suppression.spp = shared_gadget("bad");
  bad_suppression.suppression = "bogus";
  SimulateRequest zero_steps;
  zero_steps.spp = shared_gadget("bad");
  zero_steps.max_steps = 0;
  struct Case {
    Request request;
    RequestKind kind;
    std::string error;
  };
  const std::vector<Case> cases = {
      {both, RequestKind::analyze_safety,
       "analyze-safety request needs exactly one of {algebra, spp}"},
      {AnalyzeSafetyRequest{}, RequestKind::analyze_safety,
       "analyze-safety request needs exactly one of {algebra, spp}"},
      {GroundTruthRequest{}, RequestKind::ground_truth,
       "ground-truth request needs an SPP instance"},
      {RepairRequest{}, RequestKind::repair,
       "repair request needs an SPP instance"},
      {EmulateRequest{}, RequestKind::emulate,
       "emulate request needs an SPP instance, or an algebra plus a "
       "topology"},
      {no_spp, RequestKind::simulate,
       "simulate request needs an SPP instance"},
      {bad_scenario, RequestKind::simulate,
       "unknown simulation scenario 'bogus' (expected one of: steady, "
       "staged, link-flap, session-reset)"},
      {bad_suppression, RequestKind::simulate,
       "unknown suppression policy 'bogus' (expected one of: none, "
       "split-horizon, poisoned-reverse)"},
      {zero_steps, RequestKind::simulate, "simulate max-steps must be >= 1"},
  };
  AnalysisService service;
  for (const Case& c : cases) {
    const std::uint64_t errors_before = service.stats().errors;
    const Response response = service.call(c.request);
    EXPECT_EQ(response.error, c.error);
    EXPECT_EQ(response.kind, c.kind) << c.error;
    EXPECT_EQ(response.fingerprint, "") << c.error;
    EXPECT_FALSE(response.safety.has_value()) << c.error;
    EXPECT_FALSE(response.ground_truth.has_value()) << c.error;
    EXPECT_FALSE(response.repair.has_value()) << c.error;
    EXPECT_FALSE(response.emulation.has_value()) << c.error;
    EXPECT_FALSE(response.sim.has_value()) << c.error;
    EXPECT_FALSE(response.stats.has_value()) << c.error;
    EXPECT_FALSE(response.debug.has_value()) << c.error;
    EXPECT_EQ(service.stats().errors - errors_before, 1u) << c.error;
  }
}

TEST(SessionCache, AHitMatchesContentNotOnlyTheFingerprint) {
  // Two different instances under one fingerprint string (a digest
  // collision, forced here) must not share a strict gate or an oracle.
  SessionCache cache(8);
  const auto bad = shared_gadget("bad");
  SessionCache::Entry* first = cache.ensure("0123456789abcdef", bad);
  first->oracle.emplace(*bad);
  first->strict_gate.emplace(spp::algebra_from_spp(*bad)->symbolic(),
                             MonotonicityMode::strict);
  SessionCache::Entry* other =
      cache.ensure("0123456789abcdef", shared_gadget("good"));
  EXPECT_FALSE(other->oracle.has_value());
  EXPECT_FALSE(other->strict_gate.has_value());
  EXPECT_EQ(spp::canonical_spp(*other->instance),
            spp::canonical_spp(spp::good_gadget()));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);

  // Equal content is a hit, whether or not it is the same object.
  other->oracle.emplace(*other->instance);
  EXPECT_TRUE(cache.ensure("0123456789abcdef", shared_gadget("good"))
                  ->oracle.has_value());
  EXPECT_TRUE(cache.ensure("0123456789abcdef", other->instance)
                  ->oracle.has_value());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Service, ResponsesByteIdenticalToSerialAtAnyPoolSizeAndClientCount) {
  // The concurrency contract: N requests from M client threads through a
  // pool of any size produce responses byte-identical to serial execution.
  const std::vector<Request> requests = mixed_batch();

  std::vector<std::string> serial;
  {
    AnalysisService service;  // threads = 1
    for (const Request& request : requests) {
      serial.push_back(deterministic_bytes(service.call(request)));
    }
  }

  for (const int pool_size : {2, 8}) {
    ServiceOptions options;
    options.threads = pool_size;
    AnalysisService service(options);

    constexpr std::size_t k_clients = 4;
    std::vector<std::future<Response>> futures(requests.size());
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < k_clients; ++c) {
      clients.emplace_back([&, c]() {
        for (std::size_t i = c; i < requests.size(); i += k_clients) {
          futures[i] = service.submit(requests[i]);  // disjoint slots
        }
      });
    }
    for (std::thread& client : clients) client.join();

    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(deterministic_bytes(futures[i].get()), serial[i])
          << "pool=" << pool_size << " request=" << i;
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, requests.size());
    EXPECT_EQ(stats.completed, requests.size());
    EXPECT_EQ(stats.errors, 0u);
  }
}

TEST(Service, BatchRunReturnsResponsesInSubmissionOrder) {
  ServiceOptions options;
  options.threads = 4;
  AnalysisService service(options);
  const std::vector<Response> responses = service.run(mixed_batch());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, i);
  }
}

// ------------------------------------------------------- observability --

TEST(Wire, StatsRequestIsPayloadFreeAndFingerprintless) {
  const Request request = wire::parse_request("{\"kind\": \"stats\"}");
  EXPECT_TRUE(std::holds_alternative<StatsRequest>(request));
  EXPECT_EQ(fingerprint(request), "");
  // A payload on a stats line is a schema violation, not silently ignored.
  EXPECT_THROW(
      wire::parse_request("{\"kind\": \"stats\", \"gadget\": \"bad\"}"),
      InvalidArgument);
}

TEST(Wire, DebugRequestIsPayloadFreeAndFingerprintless) {
  const Request request = wire::parse_request("{\"kind\": \"debug\"}");
  EXPECT_TRUE(std::holds_alternative<DebugRequest>(request));
  EXPECT_EQ(fingerprint(request), "");
  EXPECT_THROW(
      wire::parse_request("{\"kind\": \"debug\", \"gadget\": \"bad\"}"),
      InvalidArgument);
}

TEST(Service, DebugRequestDrainsTheInstalledFlightRecorder) {
  obs::FlightRecorder recorder(256);
  obs::install_recorder(&recorder);
  std::string line;
  {
    AnalysisService service;
    service.call(GroundTruthRequest{shared_gadget("bad"), {}});
    const Response response = service.call(DebugRequest{});
    EXPECT_TRUE(response.error.empty());
    EXPECT_EQ(response.fingerprint, "");
    ASSERT_TRUE(response.debug.has_value());
    EXPECT_TRUE(response.debug->enabled);
    ASSERT_FALSE(response.debug->events.empty());
    line = wire::render_response(response);
  }
  obs::install_recorder(nullptr);

  // Golden schema: key set and shape, never values (they are live state).
  const json::Value parsed = json::parse(line);
  EXPECT_EQ(parsed.find("kind")->as_string("kind"), "debug");
  const json::Value* debug = parsed.find("debug");
  ASSERT_NE(debug, nullptr);
  EXPECT_TRUE(debug->find("enabled")->as_bool("enabled"));
  ASSERT_NE(debug->find("dropped"), nullptr);
  const auto& events = debug->find("events")->as_array("events");
  ASSERT_FALSE(events.empty());
  bool saw_begin = false, saw_end = false, saw_query = false;
  for (const json::Value& event : events) {
    for (const char* key : {"seq", "ts_us", "tid", "kind", "detail", "a",
                            "b"}) {
      EXPECT_NE(event.find(key), nullptr) << key;
    }
    const std::string kind = event.find("kind")->as_string("kind");
    if (kind == "request-begin" &&
        event.find("detail")->as_string("detail") == "ground-truth") {
      saw_begin = true;
    } else if (kind == "request-end") {
      saw_end = true;
      EXPECT_FALSE(event.find("detail")->as_string("detail").empty());
    } else if (kind == "solver-query") {
      saw_query = true;
    }
  }
  // The ground-truth request left its whole forensic trail: begin, the
  // solver query it ran, and its end mark with the fingerprint.
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
  EXPECT_TRUE(saw_query);
}

TEST(Service, DebugRequestReportsDisabledWithoutARecorder) {
  ASSERT_EQ(obs::recorder(), nullptr);
  AnalysisService service;
  const Response response = service.call(DebugRequest{});
  EXPECT_TRUE(response.error.empty());
  ASSERT_TRUE(response.debug.has_value());
  EXPECT_FALSE(response.debug->enabled);
  EXPECT_TRUE(response.debug->events.empty());
  const std::string line = wire::render_response(response);
  const json::Value parsed = json::parse(line);
  EXPECT_FALSE(parsed.find("debug")->find("enabled")->as_bool("enabled"));
}

TEST(Service, SlowRequestWatchdogCountsWithoutTouchingBytes) {
  const Request request = GroundTruthRequest{shared_gadget("bad"), {}};
  std::string baseline;
  {
    AnalysisService plain;  // default threshold: nothing here is slow
    baseline = deterministic_bytes(plain.call(request));
    EXPECT_EQ(plain.stats().slow_requests, 0u);
  }
  ServiceOptions options;
  options.slow_request_ms = 1e-6;  // everything is an outlier
  AnalysisService service(options);
  obs::FlightRecorder recorder(64);
  obs::install_recorder(&recorder);
  const Response flagged = service.call(request);
  obs::install_recorder(nullptr);
  // Observation only: identical bytes, but the watchdog counted and left
  // its forensic mark in the recorder.
  EXPECT_EQ(deterministic_bytes(flagged), baseline);
  EXPECT_GE(service.stats().slow_requests, 1u);
  bool saw_slow = false;
  for (const obs::RecorderEvent& event : recorder.drain()) {
    if (event.kind == obs::RecorderEventKind::slow_request) saw_slow = true;
  }
  EXPECT_TRUE(saw_slow);

  ServiceOptions off;
  off.slow_request_ms = 0;  // 0 disables the watchdog outright
  AnalysisService quiet(off);
  quiet.call(request);
  EXPECT_EQ(quiet.stats().slow_requests, 0u);
}

TEST(Service, StatsRequestAnswersTheGoldenSchema) {
  AnalysisService service;
  service.call(GroundTruthRequest{shared_gadget("bad"), {}});
  service.call(RepairRequest{shared_gadget("bad")});
  const Response response = service.call(StatsRequest{});
  EXPECT_TRUE(response.error.empty());
  ASSERT_TRUE(response.stats.has_value());
  EXPECT_EQ(response.fingerprint, "");

  // The golden schema: values are live execution state, so the contract
  // is the KEY SET and rendering shape, never the numbers.
  const std::string line = wire::render_response(response);
  const json::Value parsed = json::parse(line);
  EXPECT_EQ(parsed.find("kind")->as_string("kind"), "stats");
  const json::Value* stats = parsed.find("stats");
  ASSERT_NE(stats, nullptr);
  const json::Value* service_block = stats->find("service");
  ASSERT_NE(service_block, nullptr);
  for (const char* key :
       {"submitted", "completed", "errors", "warm_hits", "affinity_hits",
        "sessions_built", "sessions_evicted", "slow_requests"}) {
    EXPECT_NE(service_block->find(key), nullptr) << key;
  }
  const json::Value* metrics = stats->find("metrics");
  ASSERT_NE(metrics, nullptr);
  // Spot-check the consolidated instruments the two calls above exercised.
  for (const char* key :
       {"service.requests.submitted", "service.requests.completed",
        "session_cache.misses", "sat.queries", "sat.conflicts", "smt.checks",
        "repair.runs", "repair.solver_checks"}) {
    EXPECT_NE(metrics->find(key), nullptr) << key;
  }

  // The embedded service block is this service's own delta view: two
  // analysis calls plus the stats call itself were submitted by now.
  EXPECT_EQ(service_block->find("submitted")->as_u64("submitted"), 3u);
  EXPECT_GE(metrics->find("sat.queries")->as_u64("sat.queries"), 1u);
}

TEST(Service, ServiceStatsAreRegistryDeltasPerInstance) {
  // Two services used back-to-back must each report their own work even
  // though both write the same process-wide instruments.
  {
    AnalysisService first;
    first.call(GroundTruthRequest{shared_gadget("bad"), {}});
    EXPECT_EQ(first.stats().submitted, 1u);
    EXPECT_EQ(first.stats().completed, 1u);
  }
  AnalysisService second;
  EXPECT_EQ(second.stats().submitted, 0u);
  EXPECT_EQ(second.stats().completed, 0u);
  second.call(GroundTruthRequest{shared_gadget("disagree"), {}});
  const ServiceStats stats = second.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(Service, ByteIdentityHoldsWithTracingOnAtPoolSizesOneAndEight) {
  // The tentpole's hard contract: installing a tracer must not move one
  // deterministic byte, at any pool size, against a tracing-off baseline.
  const std::vector<Request> requests = mixed_batch();
  std::vector<std::string> baseline;
  {
    AnalysisService service;  // tracing off, threads = 1
    for (const Request& request : requests) {
      baseline.push_back(deterministic_bytes(service.call(request)));
    }
  }

  for (const int pool_size : {1, 8}) {
    obs::Tracer tracer;
    obs::install_tracer(&tracer);
    ServiceOptions options;
    options.threads = pool_size;
    std::vector<Response> responses;
    {
      AnalysisService service(options);
      responses = service.run(requests);
    }
    obs::install_tracer(nullptr);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(deterministic_bytes(responses[i]), baseline[i])
          << "pool=" << pool_size << " request=" << i;
    }
    // The run actually traced: every request records at least its
    // service.execute span.
    EXPECT_GE(tracer.event_count(), requests.size());
    const std::string trace = tracer.chrome_trace_json();
    const json::Value parsed = json::parse(trace);
    EXPECT_GE(parsed.find("traceEvents")->as_array("traceEvents").size(),
              requests.size());
  }
}

TEST(Service, ExecuteSpansNameTheirKindAndCompileStagesAreTraced) {
  obs::Tracer tracer;
  obs::install_tracer(&tracer);
  {
    AnalysisService service;
    service.call(RepairRequest{shared_gadget("bad")});
    service.call(GroundTruthRequest{shared_gadget("bad"), {}});
  }
  obs::install_tracer(nullptr);
  const json::Value parsed = json::parse(tracer.chrome_trace_json());
  std::vector<std::string> kinds;
  std::set<std::string> names;
  for (const json::Value& event :
       parsed.find("traceEvents")->as_array("traceEvents")) {
    const std::string& name = event.find("name")->as_string("name");
    names.insert(name);
    if (name != "service.execute") continue;
    const json::Value* kind = event.find("args")->find("kind");
    ASSERT_NE(kind, nullptr);
    kinds.push_back(kind->as_string("kind"));  // a string, not `true`
  }
  EXPECT_EQ(kinds, (std::vector<std::string>{"repair", "ground-truth"}));
  EXPECT_EQ(names.count("api.compile"), 1u);
  EXPECT_EQ(names.count("spp.translate"), 1u);
}

TEST(Service, ByteIdentityHoldsWithEveryDiagnosticChannelEnabled) {
  // The PR's hard contract, all channels at once: flight recorder
  // installed, metrics file writer scraping, tracer recording, and the
  // slow-request watchdog firing on every request must not move one
  // deterministic byte at any pool size against an everything-off serial
  // baseline. ("stats"/"debug" are live by contract and excluded here,
  // exactly as the CI smoke filters them before diffing.)
  const std::vector<Request> requests = mixed_batch();
  std::vector<std::string> baseline;
  {
    AnalysisService service;  // channels off, threads = 1
    for (const Request& request : requests) {
      baseline.push_back(deterministic_bytes(service.call(request)));
    }
  }

  namespace fs = std::filesystem;
  const fs::path metrics_path =
      fs::temp_directory_path() / "fsr_test_service_metrics.prom";
  for (const int pool_size : {1, 8}) {
    obs::Tracer tracer;
    obs::install_tracer(&tracer);
    obs::FlightRecorder recorder(256);
    obs::install_recorder(&recorder);
    std::vector<Response> responses;
    {
      obs::MetricsFileWriter::Options writer_options;
      writer_options.path = metrics_path.string();
      writer_options.interval = std::chrono::milliseconds(5);
      obs::MetricsFileWriter writer(writer_options);
      ServiceOptions options;
      options.threads = pool_size;
      options.slow_request_ms = 1e-6;  // the watchdog fires on everything
      AnalysisService service(options);
      responses = service.run(requests);
      // The live kinds answer in-band alongside the analysis traffic.
      const Response debug = service.call(DebugRequest{});
      ASSERT_TRUE(debug.debug.has_value());
      EXPECT_TRUE(debug.debug->enabled);
      EXPECT_FALSE(debug.debug->events.empty());
      writer.stop();
      EXPECT_TRUE(writer.ok());
    }
    obs::install_recorder(nullptr);
    obs::install_tracer(nullptr);

    for (std::size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(deterministic_bytes(responses[i]), baseline[i])
          << "pool=" << pool_size << " request=" << i;
    }
    // Every channel actually saw traffic.
    EXPECT_GT(recorder.recorded(), 0u);
    EXPECT_GE(tracer.event_count(), requests.size());
  }
  fs::remove(metrics_path);
}

TEST(Service, RepairEffortDeltasAreExactInBorrowedAndSelfBuiltPaths) {
  // The satellite bugfix, asserted directly on the report structs: per-run
  // effort (solver checks, oracle session deltas) and per-run wall clocks
  // must measure the same thing whether sessions were borrowed — cold or
  // warm — or lazily self-built.
  const repair::RepairEngine engine;
  for (const char* name : {"good", "bad", "disagree", "bad-chain-4"}) {
    const spp::SppInstance instance = spp::gadget_by_name(name);
    const repair::RepairReport self_built = engine.repair(instance);

    IncrementalSafetySession::Options gate_options;
    gate_options.extract_models = false;
    IncrementalSafetySession gate(
        spp::algebra_from_spp(instance)->symbolic(), MonotonicityMode::strict,
        gate_options);
    groundtruth::StableSatSession oracle(instance);
    repair::RepairSessions sessions;
    sessions.strict_gate = &gate;
    sessions.oracle = &oracle;
    const repair::RepairReport cold = engine.repair(instance, sessions);
    const repair::RepairReport warm = engine.repair(instance, sessions);

    for (const repair::RepairReport* borrowed : {&cold, &warm}) {
      EXPECT_EQ(borrowed->solver_checks, self_built.solver_checks) << name;
      EXPECT_EQ(borrowed->candidates_checked, self_built.candidates_checked)
          << name;
      EXPECT_EQ(borrowed->cores_seen, self_built.cores_seen) << name;
      EXPECT_EQ(borrowed->oracle_queries, self_built.oracle_queries) << name;
    }
    // Oracle group effort: every run demands the same group set, so the
    // encoded+cache-hit total is identical across borrowed runs no matter
    // how warm the session is (the SPLIT is what warmth amortises). The
    // self-built path additionally encodes the base instance inside its
    // own delta window — strictly more work, never less.
    EXPECT_EQ(cold.oracle_groups_encoded + cold.oracle_cache_hits,
              warm.oracle_groups_encoded + warm.oracle_cache_hits)
        << name;
    EXPECT_GE(self_built.oracle_groups_encoded + self_built.oracle_cache_hits,
              cold.oracle_groups_encoded + cold.oracle_cache_hits)
        << name;
    // Both paths time the whole repair call (setup included), so every
    // run reports a positive wall clock — the self-built path used to
    // drop its constructor work (spec translation, session builds) on
    // the floor relative to the borrowed path.
    EXPECT_GT(self_built.wall_ms, 0.0) << name;
    EXPECT_GT(cold.wall_ms, 0.0) << name;
    EXPECT_GT(warm.wall_ms, 0.0) << name;
  }
}

}  // namespace
}  // namespace fsr::api
