// SPP -> routing algebra translation (paper Section III-B).
//
// Every directed link uv receives a unique label l(u-v) whose complement
// is l(v-u); every permitted path p a unique signature r(p). Per-node
// rankings become chains of strict preference constraints, and the
// concatenation operator connects exactly the permitted paths:
//
//     r(uvp) = l(u-v) (+) r(vp)   when both paths are permitted,
//
// everything else yielding phi. The resulting FiniteAlgebra serves both
// the safety analyzer (the Figure-3 instance yields the paper's eighteen
// constraints: nine rankings + nine strict-monotonicity entries) and the
// generated distributed implementation (extension by the table replays
// exactly the SPP dynamics).
#ifndef FSR_SPP_TRANSLATE_H
#define FSR_SPP_TRANSLATE_H

#include <string>

#include "algebra/algebra.h"
#include "spp/path_index.h"
#include "spp/spp.h"

namespace fsr::spp {

/// Label constant for the directed link u -> v.
std::string spp_label(const std::string& u, const std::string& v);

/// Signature constant for a permitted path.
std::string spp_signature(const Path& path);

/// spp_signature(index.path(id)), rendered straight from the index.
std::string spp_signature(const PathIndex& index, PathIndex::PathId id);

/// Builds the algebra of Section III-B for `instance` (counted in the
/// "spp.translations" registry counter, timed by the "spp.translate" span).
/// Throws fsr::InvalidArgument if the instance has no permitted paths.
algebra::AlgebraPtr algebra_from_spp(const SppInstance& instance);

}  // namespace fsr::spp

#endif  // FSR_SPP_TRANSLATE_H
