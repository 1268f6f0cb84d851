// The classic SPP gadget library (Griffin-Shepherd-Wilfong) plus the
// paper's Figure-3 iBGP configuration instance.
//
// Conventions: the destination is node "0"; external routes (r1, r2, r3 in
// the figure) are modelled as one-hop paths to "0".
#ifndef FSR_SPP_GADGETS_H
#define FSR_SPP_GADGETS_H

#include <cstdint>

#include "spp/spp.h"

namespace fsr::spp {

/// GOOD GADGET: three nodes around the destination; node 3 anchors on its
/// direct route, so the system has a unique stable assignment and every
/// SPVP execution converges.
///   1: (1 3 0) > (1 0)
///   2: (2 1 0) > (2 0)
///   3: (3 0)   > (3 1 0)
SppInstance good_gadget();

/// BAD GADGET: the canonical divergent instance — each node prefers the
/// route through its clockwise neighbour. No stable assignment exists and
/// SPVP oscillates forever.
///   1: (1 2 0) > (1 0)
///   2: (2 3 0) > (2 0)
///   3: (3 1 0) > (3 0)
SppInstance bad_gadget();

/// DISAGREE: two nodes that each prefer routing through the other. Two
/// stable assignments exist; executions may flap between them transiently
/// but always converge to one.
///   1: (1 2 0) > (1 0)
///   2: (2 1 0) > (2 0)
SppInstance disagree_gadget();

/// The iBGP route-reflection instance of the paper's Figure 3 (after
/// Flavel-Roughan): route reflectors a, b, c and egress nodes d, e, f with
/// external routes r1, r2, r3. Each reflector prefers the other reflector's
/// client egress over its own, producing an oscillation; the instance is
/// unsafe and its unsat core isolates the reflector constraints.
SppInstance ibgp_figure3_gadget();

/// A repaired variant of Figure 3 in which every reflector prefers its own
/// client's egress route; safe, with a unique stable assignment. Used as
/// the "NoGadget" configuration of Section VI-B.
SppInstance ibgp_figure3_fixed();

/// A chain of `count` independent GOOD gadgets sharing one destination
/// (gadget k uses nodes 1k/2k/3k). Used by the Section VI-C experiment
/// that scales the number of gadgets.
SppInstance good_gadget_chain(std::int32_t count);

/// The BAD-gadget family: one BAD gadget plus `count - 1` independent GOOD
/// gadgets sharing the destination. The instance grows linearly while the
/// dispute cycle (and hence the minimal unsat core and the minimal repair)
/// stays the BAD gadget's six constraints — the shape the repair engine's
/// incremental re-checks are benchmarked on.
SppInstance bad_gadget_chain(std::int32_t count);

/// Largest N gadget_by_name accepts in "good-chain-N" / "bad-chain-N".
inline constexpr std::int32_t k_max_chain_count = 256;

/// The names gadget_by_name accepts (display order). The two chain
/// families appear by their documented spelling ("good-chain-N",
/// "bad-chain-N"); N is a decimal in 1..k_max_chain_count.
const std::vector<std::string>& gadget_names();

/// Builds a library gadget from its CLI/wire name: good, bad, disagree,
/// ibgp-figure3, ibgp-figure3-fixed, good-chain-N, bad-chain-N. Throws
/// fsr::InvalidArgument for anything else (including a chain count with
/// trailing bytes or beyond k_max_chain_count) — the one lookup shared by
/// fsr_repair, fsr_serve, and the scenario sources.
SppInstance gadget_by_name(const std::string& name);

}  // namespace fsr::spp

#endif  // FSR_SPP_GADGETS_H
