#include "spp/translate.h"

#include <ranges>
#include <vector>

#include "algebra/finite_algebra.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace fsr::spp {

std::string spp_label(const std::string& u, const std::string& v) {
  return "l(" + u + "-" + v + ")";
}

std::string spp_signature(const Path& path) {
  return "r(" + path_name(path) + ")";
}

std::string spp_signature(const PathIndex& index, PathIndex::PathId id) {
  return "r(" + index.path_name(id) + ")";
}

algebra::AlgebraPtr algebra_from_spp(const SppInstance& instance) {
  static obs::Counter& translations =
      obs::registry().counter("spp.translations");
  translations.add(1);
  obs::Span span("spp.translate");
  if (instance.permitted_path_count() == 0) {
    throw InvalidArgument("SPP instance '" + instance.name() +
                          "' has no permitted paths");
  }
  algebra::FiniteAlgebra::Builder builder("spp:" + instance.name());
  const PathIndex index(instance);

  // Labels: one per direction of every declared link.
  for (const auto& [u, v] : instance.edges()) {
    builder.add_label(spp_label(u, v), spp_label(v, u));
  }

  // Signatures: one per permitted path, rendered once per path id.
  std::vector<std::string> signature(index.path_count());
  for (PathIndex::PathId id = 0; id < index.path_count(); ++id) {
    signature[id] = spp_signature(index, id);
    builder.add_signature(signature[id]);
  }

  for (PathIndex::NodeId node = 0; node < index.node_count(); ++node) {
    const auto ranked = index.ranked(node);

    // Rankings: r1 < r2 < ... < rn as pairwise strict preferences.
    for (const PathIndex::PathId id : ranked | std::views::drop(1)) {
      builder.prefer(signature[id - 1], algebra::PrefRel::strictly_better,
                     signature[id],
                     "rank at " + index.name(node) + ": " +
                         index.path_name(id - 1) + " < " +
                         index.path_name(id));
    }

    const auto label = [&](PathIndex::PathId id) {
      return spp_label(index.name(node), index.name(index.next_hop(id)));
    };
    for (const PathIndex::PathId id : ranked) {
      if (index.direct(id)) {
        // One-hop permitted path: a member of the origination set; its
        // signature attaches to the link's label directly.
        builder.set_origination(label(id), signature[id]);
        continue;
      }
      // Multi-hop: connect to the sub-path when (and only when) the
      // sub-path is itself permitted at the next hop. Paths whose suffix
      // is not permitted stay unconnected — they are constrained only by
      // their node's ranking, exactly as in the paper's Figure-3 walkthrough.
      if (index.suffix(id) != PathIndex::k_none) {
        builder.set_generation(label(id), signature[index.suffix(id)],
                               signature[id]);
      }
    }
  }
  return builder.build();
}

}  // namespace fsr::spp
