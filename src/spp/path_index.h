// One id space for an SPP instance's nodes and permitted paths.
//
// The Section III-B translation gives every permitted path one signature
// and links each path to its permitted suffix (r(uvp) = l(u-v) (+) r(vp)).
// PathIndex is the one place that numbers them; the simulator, the
// incremental SAT oracle, the repair search and the translation all read
// it:
//
//   * node ids follow sorted-name order, the destination at its sorted
//     position;
//   * a path id is the path's position in (source id, rank) order, so a
//     node's ranked paths form the contiguous id range ranked(node);
//   * each path's hops are node ids in CSR form (one flat array plus
//     offsets), and suffix(id) links it to the path minus its source when
//     that path is permitted at the next hop.
//
// SppInstance rejects a path listed twice at its source, so a path's id
// is also its content identity: find() and suffix links match by content.
//
// The index is a value: built from a finished instance, it owns its data
// and holds no pointer into the instance, so it may outlive it. It is not
// cached on the instance — an instance is built incrementally and shared
// const across workers — so each consumer builds its own.
#ifndef FSR_SPP_PATH_INDEX_H
#define FSR_SPP_PATH_INDEX_H

#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "spp/spp.h"

namespace fsr::spp {

class PathIndex {
 public:
  using NodeId = std::uint32_t;
  using PathId = std::uint32_t;

  /// "No path": the suffix of a direct path or of one whose suffix is not
  /// permitted at the next hop.
  static constexpr PathId k_none = ~PathId{0};

  explicit PathIndex(const SppInstance& instance);

  /// Nodes, the destination included.
  std::size_t node_count() const noexcept { return names_.size(); }
  NodeId destination() const noexcept { return destination_; }
  /// The id of `name`, or nullopt for a node the instance does not have.
  std::optional<NodeId> node(std::string_view name) const;
  const std::string& name(NodeId id) const { return names_[id]; }

  std::size_t path_count() const noexcept { return suffix_.size(); }
  /// The ids of `node`'s permitted paths, most preferred first.
  auto ranked(NodeId node) const {
    return std::views::iota(first_path_[node], first_path_[node + 1]);
  }
  NodeId source(PathId id) const { return hops_[first_hop_[id]]; }
  NodeId next_hop(PathId id) const { return hops_[first_hop_[id] + 1]; }
  /// A one-hop path to the destination.
  bool direct(PathId id) const {
    return first_hop_[id + 1] - first_hop_[id] == 2;
  }
  /// The path minus its source if the next hop permits it, else k_none.
  PathId suffix(PathId id) const { return suffix_[id]; }

  /// The id of permitted path `path`, or nullopt when it is not permitted
  /// (a path through an unknown node included).
  std::optional<PathId> find(const Path& path) const;

  /// The path's node names, for rendering and decoding only.
  Path path(PathId id) const;
  /// spp::path_name(path(id)), without the intermediate Path.
  std::string path_name(PathId id) const;

 private:
  /// The path's node ids, source first, destination last.
  std::span<const NodeId> hops(PathId id) const {
    return {hops_.data() + first_hop_[id], first_hop_[id + 1] - first_hop_[id]};
  }
  /// The id among `node`'s ranked paths whose hops are `key`, if any.
  std::optional<PathId> find_at(NodeId node,
                                std::span<const NodeId> key) const;

  std::vector<std::string> names_;  // node id -> name, sorted
  NodeId destination_ = 0;
  std::vector<PathId> first_path_;  // node id -> first ranked path id; +1 end
  std::vector<std::uint32_t> first_hop_;  // path id -> offset in hops_; +1 end
  std::vector<NodeId> hops_;
  std::vector<PathId> suffix_;
  /// Each node's ranked range again, sorted by hops: find() bisects it.
  std::vector<PathId> by_hops_;
};

}  // namespace fsr::spp

#endif  // FSR_SPP_PATH_INDEX_H
