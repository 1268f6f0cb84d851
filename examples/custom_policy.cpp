// Authoring a custom policy from scratch with the algebra builder.
//
// Builds a "regional routing" policy: routes are classified as in-region
// or out-of-region; in-region routes are preferred; out-of-region routes
// may not be re-exported across another region boundary (a simple
// valley-free-style rule). The example shows
//   * the FiniteAlgebra builder API with separated import/export filters,
//   * the safety analysis catching that the bare policy is only monotone,
//   * rescuing it with a hop-count tie-breaker (lexical product),
//   * emulating the composition, and writing the emitted Yices script to
//     stdout so it can be inspected or post-edited.
//
// Build & run:  ./build/examples/custom_policy
#include <cstdio>

#include "algebra/additive_algebra.h"
#include "algebra/finite_algebra.h"
#include "algebra/lexical_product.h"
#include "fsr/emulation.h"
#include "fsr/safety_analyzer.h"
#include "topology/topology.h"

namespace {

fsr::algebra::AlgebraPtr regional_policy() {
  using fsr::algebra::PrefRel;
  fsr::algebra::FiniteAlgebra::Builder builder("regional");
  builder.add_signature("IN");   // stayed inside the region so far
  builder.add_signature("OUT");  // crossed at least one region boundary
  builder.add_label("i", "i");   // intra-region link (self-reverse)
  builder.add_label("x", "x");   // cross-region link (self-reverse)

  builder.prefer("IN", PrefRel::strictly_better, "OUT",
                 "keep traffic regional: IN < OUT");

  // Extension: crossing an 'x' link makes any route OUT; intra links
  // preserve the classification.
  builder.set_generation("i", "IN", "IN");
  builder.set_generation("i", "OUT", "OUT");
  builder.set_generation("x", "IN", "OUT");
  builder.set_generation("x", "OUT", "OUT");

  // Export filter (receiver-side keyed): an OUT route may not cross a
  // second region boundary.
  builder.set_export("x", "OUT", false);

  builder.set_origination("i", "IN");
  builder.set_origination("x", "OUT");
  return builder.build();
}

/// Two 3-node regions joined by one cross link; destination in region A.
fsr::topology::Topology two_regions() {
  using fsr::algebra::Value;
  fsr::topology::Topology topo;
  topo.name = "two-regions";
  topo.nodes = {"a1", "a2", "a3", "b1", "b2", "b3", "dst"};
  topo.destination = "dst";
  const auto intra = [](const char* u, const char* v) {
    return fsr::topology::TopoLink{
        u, v, Value::pair(Value::atom("i"), Value::integer(1)),
        Value::pair(Value::atom("i"), Value::integer(1)), {}};
  };
  const auto cross = [](const char* u, const char* v) {
    return fsr::topology::TopoLink{
        u, v, Value::pair(Value::atom("x"), Value::integer(1)),
        Value::pair(Value::atom("x"), Value::integer(1)), {}};
  };
  topo.links = {intra("a1", "a2"), intra("a2", "a3"), intra("a1", "a3"),
                intra("b1", "b2"), intra("b2", "b3"), intra("b1", "b3"),
                cross("a3", "b1"), intra("a1", "dst")};
  return topo;
}

}  // namespace

int main() {
  const auto regional = regional_policy();

  const fsr::SafetyAnalyzer analyzer;
  const auto bare = analyzer.analyze(*regional);
  std::printf("bare policy: %s\n\n", bare.narrative.c_str());

  // Print the emitted solver script for the strict check - the artifact a
  // user could edit and re-run through the Yices-style frontend.
  std::printf("emitted Yices script (strict check):\n%s\n",
              fsr::SafetyAnalyzer::emit_yices_script(
                  regional->symbolic(), fsr::MonotonicityMode::strict)
                  .c_str());

  const auto safe = fsr::algebra::lexical_product(
      regional, fsr::algebra::shortest_hop_count());
  const auto composed = analyzer.analyze(*safe);
  std::printf("%s\n\n", composed.narrative.c_str());

  fsr::EmulationOptions options;
  options.batch_interval = 100 * fsr::net::k_millisecond;
  const auto run = fsr::emulate_gpv(*safe, two_regions(), options);
  std::printf("emulation: %s, %zu nodes routed\n",
              run.quiesced ? "converged" : "cut off",
              run.best_routes.size());
  for (const auto& [node, route] : run.best_routes) {
    std::printf("  %-4s %-12s via", node.c_str(), route.first.c_str());
    for (const auto& hop : route.second) std::printf(" %s", hop.c_str());
    std::printf("\n");
  }
  std::printf("\nnote: region B routes are OUT and reach the destination "
              "through the single allowed boundary crossing.\n");
  return 0;
}
