#include "spp/random_instance.h"

#include <algorithm>
#include <map>

#include "util/rng.h"

namespace fsr::spp {
namespace {

/// Fisher-Yates with an explicit draw per swap: unlike std::shuffle, the
/// number of engine draws is pinned down, so the permutation is stable for
/// a given standard library. (uniform_int_distribution's mapping is still
/// implementation-defined, as everywhere else in the generators — the
/// determinism contract is per-binary, not cross-stdlib.)
template <typename T>
void deterministic_shuffle(std::vector<T>& items, util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

/// All simple paths from `from` to the destination over `adjacency`, with
/// at most `max_edges` edges, capped at `max_paths` results.
void enumerate_paths(const std::map<std::string, std::vector<std::string>>&
                         adjacency,
                     const std::string& destination, Path& prefix,
                     std::int32_t max_edges, std::size_t max_paths,
                     std::vector<Path>& out) {
  if (out.size() >= max_paths) return;
  const std::string& here = prefix.back();
  if (here == destination) {
    out.push_back(prefix);
    return;
  }
  if (static_cast<std::int32_t>(prefix.size()) > max_edges) return;
  const auto it = adjacency.find(here);
  if (it == adjacency.end()) return;
  for (const std::string& next : it->second) {
    if (std::find(prefix.begin(), prefix.end(), next) != prefix.end()) continue;
    prefix.push_back(next);
    enumerate_paths(adjacency, destination, prefix, max_edges, max_paths, out);
    prefix.pop_back();
  }
}

}  // namespace

SppInstance random_spp_instance(std::string name, std::uint64_t seed,
                                const RandomSppSweep& sweep) {
  util::Rng rng(seed);
  const auto node_count = static_cast<std::int32_t>(
      rng.uniform_int(sweep.min_nodes, sweep.max_nodes));

  std::vector<std::string> nodes;
  nodes.reserve(static_cast<std::size_t>(node_count));
  for (std::int32_t i = 1; i <= node_count; ++i) {
    // Built in two steps: GCC 12's -Wrestrict false-fires on
    // `"literal" + std::to_string(...)` under some inlining decisions.
    std::string node = "n";
    node += std::to_string(i);
    nodes.push_back(std::move(node));
  }

  SppInstance instance(std::move(name));
  const std::string& destination = instance.destination();
  std::map<std::string, std::vector<std::string>> adjacency;
  const auto connect = [&](const std::string& u, const std::string& v) {
    if (instance.has_edge(u, v)) return;
    instance.add_edge(u, v);
    adjacency[u].push_back(v);
    adjacency[v].push_back(u);
  };

  // Random spanning structure rooted at the destination keeps every node
  // reachable; extra edges create the path diversity that makes ranking
  // conflicts (and hence interesting verdicts) possible.
  for (std::int32_t i = 0; i < node_count; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const std::string& attach =
        i == 0 ? destination
               : (rng.chance(0.4)
                      ? destination
                      : nodes[static_cast<std::size_t>(
                            rng.uniform_int(0, i - 1))]);
    connect(nodes[ui], attach);
  }
  for (std::int32_t i = 0; i < node_count; ++i) {
    for (std::int32_t j = i + 1; j < node_count; ++j) {
      if (rng.chance(sweep.extra_edge_probability)) {
        connect(nodes[static_cast<std::size_t>(i)],
                nodes[static_cast<std::size_t>(j)]);
      }
    }
  }

  for (const std::string& node : nodes) {
    std::vector<Path> candidates;
    Path prefix = {node};
    enumerate_paths(adjacency, destination, prefix, sweep.max_path_length,
                    /*max_paths=*/64, candidates);
    if (candidates.empty()) {
      // Length cap starved this node; retry unbounded (a simple path
      // visits each node once, so node_count edges always suffice).
      enumerate_paths(adjacency, destination, prefix, node_count + 1,
                      /*max_paths=*/64, candidates);
    }
    deterministic_shuffle(candidates, rng);
    const auto keep = std::min<std::size_t>(
        candidates.size(), static_cast<std::size_t>(sweep.paths_per_node));
    for (std::size_t i = 0; i < keep; ++i) {
      instance.add_permitted_path(candidates[i]);
    }
  }
  return instance;
}

}  // namespace fsr::spp
