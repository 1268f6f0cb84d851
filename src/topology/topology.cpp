#include "topology/topology.h"

#include <algorithm>

namespace fsr::topology {

bool Topology::has_node(const std::string& node) const {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

std::vector<std::pair<std::string, algebra::Value>>
Topology::labelled_neighbors(const std::string& node) const {
  std::vector<std::pair<std::string, algebra::Value>> out;
  for (const TopoLink& link : links) {
    if (link.u == node) out.emplace_back(link.v, link.label_uv);
    if (link.v == node) out.emplace_back(link.u, link.label_vu);
  }
  return out;
}

std::string canonical_topology(const Topology& topology) {
  std::string out = "dest=" + topology.destination + ";nodes=";
  for (const std::string& node : topology.nodes) out += node + ",";
  out += ";links=";
  for (const auto& link : topology.links) {
    out += link.u + "~" + link.v + "[" + link.label_uv.to_string() + "/" +
           link.label_vu.to_string() + "]" +
           std::to_string(link.net_config.bandwidth_mbps) + "mbps," +
           std::to_string(link.net_config.latency) + "us," +
           std::to_string(link.net_config.max_jitter) + "j;";
  }
  out += ";domains=";
  for (const auto& [node, domain] : topology.domain_of) {
    out += node + "=" + domain + ",";
  }
  return out;
}

}  // namespace fsr::topology
