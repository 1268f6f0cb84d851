// Seeded random SPP instances: the fuzz workload of the campaign's
// random-spp and repair-targets sources, the differential and ground-truth
// test sweeps, and the wire protocol's "random" payload.
#ifndef FSR_SPP_RANDOM_INSTANCE_H
#define FSR_SPP_RANDOM_INSTANCE_H

#include <cstdint>
#include <string>

#include "spp/spp.h"

namespace fsr::spp {

/// Shape of a random instance. `count` is how many instances the
/// campaign's random-spp source draws; the generator itself ignores it.
struct RandomSppSweep {
  std::int32_t count = 8;
  std::int32_t min_nodes = 3;
  std::int32_t max_nodes = 6;
  double extra_edge_probability = 0.3;
  std::int32_t paths_per_node = 3;
  std::int32_t max_path_length = 5;
};

/// Builds a random-but-valid SPP instance: a connected graph rooted at the
/// destination plus extra edges, with up to `paths_per_node` randomly
/// ranked permitted paths per node. Deterministic in `seed`. Exposed for
/// tests and the fuzz sweep.
SppInstance random_spp_instance(std::string name, std::uint64_t seed,
                                const RandomSppSweep& sweep);

}  // namespace fsr::spp

#endif  // FSR_SPP_RANDOM_INSTANCE_H
