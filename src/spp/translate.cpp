#include "spp/translate.h"

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

  // Labels: one per direction of every declared link.
  for (const auto& [u, v] : instance.edges()) {
    builder.add_label(spp_label(u, v), spp_label(v, u));
  }

  // Signatures: one per permitted path.
  for (const std::string& node : instance.nodes()) {
    for (const Path& path : instance.permitted(node)) {
      builder.add_signature(spp_signature(path));
    }
  }

  for (const std::string& node : instance.nodes()) {
    const auto& ranked = instance.permitted(node);

    // Rankings: r1 < r2 < ... < rn as pairwise strict preferences.
    for (std::size_t i = 0; i + 1 < ranked.size(); ++i) {
      builder.prefer(spp_signature(ranked[i]),
                     algebra::PrefRel::strictly_better,
                     spp_signature(ranked[i + 1]),
                     "rank at " + node + ": " + path_name(ranked[i]) + " < " +
                         path_name(ranked[i + 1]));
    }

    for (const Path& path : ranked) {
      if (path.size() == 2) {
        // One-hop permitted path: a member of the origination set; its
        // signature attaches to the link's label directly.
        builder.set_origination(spp_label(path[0], path[1]),
                                spp_signature(path));
        continue;
      }
      // Multi-hop: connect to the sub-path when (and only when) the
      // sub-path is itself permitted at the next hop. Paths whose suffix
      // is not permitted stay unconnected — they are constrained only by
      // their node's ranking, exactly as in the paper's Figure-3 walkthrough.
      const Path suffix(path.begin() + 1, path.end());
      if (instance.rank_of(suffix).has_value()) {
        builder.set_generation(spp_label(path[0], path[1]),
                               spp_signature(suffix), spp_signature(path));
      }
    }
  }
  return builder.build();
}

}  // namespace fsr::spp
