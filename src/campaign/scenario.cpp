#include "campaign/scenario.h"

#include "util/error.h"
#include "util/strings.h"

namespace fsr::campaign {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(ScenarioKind kind) noexcept {
  switch (kind) {
    case ScenarioKind::safety:
      return "safety";
    case ScenarioKind::emulation:
      return "emulation";
    case ScenarioKind::simulation:
      return "simulation";
  }
  return "safety";
}

void validate_scenario(const Scenario& scenario) {
  const bool has_spp = scenario.spp != nullptr;
  const bool has_algebra = scenario.algebra != nullptr;
  const bool has_topology = scenario.topology != nullptr;
  bool ok = false;
  if (scenario.kind == ScenarioKind::safety) {
    // Exactly one analysis target: an SPP instance is itself translated to
    // an algebra, so carrying both would make the cache key (spp content)
    // and the executed work (the algebra) disagree.
    ok = (has_spp != has_algebra) && !has_topology;
  } else if (scenario.kind == ScenarioKind::simulation) {
    // The event-driven simulator runs concrete SPP instances only.
    ok = has_spp && !has_algebra && !has_topology;
  } else {
    ok = (has_spp && !has_algebra && !has_topology) ||
         (!has_spp && has_algebra && has_topology);
  }
  if (!ok) {
    throw InvalidArgument(
        "scenario '" + scenario.id + "' has an invalid payload shape for " +
        to_string(scenario.kind) +
        " (want: safety with spp XOR algebra, emulation with spp or "
        "algebra+topology, or simulation with spp)");
  }
}

std::uint64_t derive_scenario_seed(std::uint64_t campaign_seed,
                                   const std::string& id,
                                   std::uint64_t ordinal) {
  return splitmix64(campaign_seed ^ splitmix64(util::fnv1a64(id) + ordinal));
}

}  // namespace fsr::campaign
