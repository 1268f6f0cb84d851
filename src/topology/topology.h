// Topology description shared by the emulation layer and the generators.
//
// A Topology is policy-annotated: every directed side of a link carries
// the algebra label the owning node uses when extending routes over it
// (atoms for business relationships, integers for costs, pairs for
// lexical products). The destination is a distinguished node; nodes
// adjacent to it originate one-hop routes per the algebra's origination
// map (Section V-B step 4).
#ifndef FSR_TOPOLOGY_TOPOLOGY_H
#define FSR_TOPOLOGY_TOPOLOGY_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "algebra/value.h"
#include "net/simulator.h"

namespace fsr::topology {

struct TopoLink {
  std::string u;
  std::string v;
  algebra::Value label_uv;  // u's label for the link towards v
  algebra::Value label_vu;  // v's label for the link towards u
  net::LinkConfig net_config;
};

struct Topology {
  std::string name;
  std::vector<std::string> nodes;  // includes the destination
  std::string destination;
  std::vector<TopoLink> links;
  /// Optional node -> domain marker (used by HLP). Markers are atoms like
  /// "dom3".
  std::map<std::string, std::string> domain_of;

  bool has_node(const std::string& node) const;
  /// Links incident to `node`, as (neighbour, label from node's side).
  std::vector<std::pair<std::string, algebra::Value>> labelled_neighbors(
      const std::string& node) const;
  std::size_t node_count() const noexcept { return nodes.size(); }
};

/// Canonical text of an annotated topology — nodes, destination, labelled
/// links with their net configs, and domain markers — for content
/// identity. Excludes the name.
std::string canonical_topology(const Topology& topology);

}  // namespace fsr::topology

#endif  // FSR_TOPOLOGY_TOPOLOGY_H
