#include "spp/path_index.h"

#include <algorithm>
#include <unordered_map>

namespace fsr::spp {

PathIndex::PathIndex(const SppInstance& instance) : names_(instance.nodes()) {
  const auto at = std::lower_bound(names_.begin(), names_.end(),
                                   instance.destination());
  destination_ = static_cast<NodeId>(at - names_.begin());
  names_.insert(at, instance.destination());

  // Hops resolve by hash here; node() bisects the sorted names instead.
  std::unordered_map<std::string_view, NodeId> id_of_name;
  for (NodeId id = 0; id < names_.size(); ++id) {
    id_of_name.emplace(names_[id], id);
  }
  first_path_.reserve(names_.size() + 1);
  first_hop_.push_back(0);
  for (NodeId id = 0; id < names_.size(); ++id) {
    first_path_.push_back(static_cast<PathId>(suffix_.size()));
    for (const Path& path : instance.permitted(names_[id])) {
      for (const std::string& hop : path) hops_.push_back(id_of_name.at(hop));
      first_hop_.push_back(static_cast<std::uint32_t>(hops_.size()));
      suffix_.push_back(k_none);
    }
  }
  first_path_.push_back(static_cast<PathId>(suffix_.size()));

  by_hops_.resize(suffix_.size());
  for (PathId id = 0; id < by_hops_.size(); ++id) by_hops_[id] = id;
  for (NodeId id = 0; id < names_.size(); ++id) {
    std::sort(by_hops_.begin() + first_path_[id],
              by_hops_.begin() + first_path_[id + 1],
              [this](PathId x, PathId y) {
                return std::ranges::lexicographical_compare(hops(x), hops(y));
              });
  }
  for (PathId id = 0; id < suffix_.size(); ++id) {
    if (direct(id)) continue;
    suffix_[id] = find_at(next_hop(id), hops(id).subspan(1)).value_or(k_none);
  }
}

std::optional<PathIndex::NodeId> PathIndex::node(std::string_view name) const {
  const auto it = std::lower_bound(
      names_.begin(), names_.end(), name,
      [](const std::string& x, std::string_view y) { return x < y; });
  if (it == names_.end() || *it != name) return std::nullopt;
  return static_cast<NodeId>(it - names_.begin());
}

std::optional<PathIndex::PathId> PathIndex::find_at(
    NodeId node, std::span<const NodeId> key) const {
  const auto begin = by_hops_.begin() + first_path_[node];
  const auto end = by_hops_.begin() + first_path_[node + 1];
  const auto it = std::lower_bound(
      begin, end, key, [this](PathId id, std::span<const NodeId> hops_key) {
        return std::ranges::lexicographical_compare(hops(id), hops_key);
      });
  if (it == end || !std::ranges::equal(hops(*it), key)) return std::nullopt;
  return *it;
}

std::optional<PathIndex::PathId> PathIndex::find(const Path& path) const {
  std::vector<NodeId> key;
  key.reserve(path.size());
  for (const std::string& hop : path) {
    const auto id = node(hop);
    if (!id.has_value()) return std::nullopt;
    key.push_back(*id);
  }
  if (key.empty()) return std::nullopt;
  return find_at(key.front(), key);
}

Path PathIndex::path(PathId id) const {
  Path out;
  for (const NodeId hop : hops(id)) out.push_back(names_[hop]);
  return out;
}

std::string PathIndex::path_name(PathId id) const {
  const std::span<const NodeId> ids = hops(id);
  std::string out = names_[ids.front()];
  for (const NodeId hop : ids.subspan(1)) {
    out += '-';
    out += names_[hop];
  }
  return out;
}

}  // namespace fsr::spp
