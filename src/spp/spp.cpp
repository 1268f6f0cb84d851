#include "spp/spp.h"

#include <algorithm>

#include "util/error.h"
#include "util/strings.h"

namespace fsr::spp {

const std::vector<Path> SppInstance::k_no_paths{};

std::string path_name(const Path& path) {
  return util::join(path, "-");
}

std::string canonical_spp(const SppInstance& instance) {
  // Sized first, then appended into one buffer: the text is this
  // instance's content identity and is built once per compiled request.
  const std::vector<std::string> nodes = instance.nodes();
  std::size_t size = 5 + instance.destination().size() + 7 + 7;
  for (const auto& [u, v] : instance.edges()) size += u.size() + v.size() + 2;
  for (const std::string& node : nodes) {
    size += node.size() + 2;
    for (const Path& path : instance.permitted(node)) {
      size += path.size();  // '-' separators plus the trailing ','
      for (const std::string& hop : path) size += hop.size();
    }
  }
  std::string out;
  out.reserve(size);
  out += "dest=";
  out += instance.destination();
  out += ";edges=";
  for (const auto& [u, v] : instance.edges()) {
    out += u;
    out += '~';
    out += v;
    out += ',';
  }
  out += ";paths=";
  for (const std::string& node : nodes) {
    out += node;
    out += ':';
    for (const Path& path : instance.permitted(node)) {
      for (std::size_t i = 0; i < path.size(); ++i) {
        if (i > 0) out += '-';
        out += path[i];
      }
      out += ',';
    }
    out += ';';
  }
  return out;
}

const char* to_string(EnumerationStop stop) noexcept {
  switch (stop) {
    case EnumerationStop::completed:
      return "completed";
    case EnumerationStop::state_budget:
      return "state-budget";
    case EnumerationStop::solution_budget:
      return "solution-budget";
  }
  return "state-budget";
}

namespace {

/// Throws unless `node` is a name the renderings can carry unambiguously:
/// non-empty and free of path_name's and canonical_spp's separators.
void check_node_name(const std::string& node) {
  if (node.empty() || node.find_first_of("-~,:;") != std::string::npos) {
    throw InvalidArgument("SPP node name '" + node +
                          "' must be non-empty and free of '-', '~', ',', "
                          "':' and ';'");
  }
}

}  // namespace

SppInstance::SppInstance(std::string name, std::string destination)
    : name_(std::move(name)), destination_(std::move(destination)) {
  if (name_.empty() || destination_.empty()) {
    throw InvalidArgument("SPP instance and destination names are required");
  }
  check_node_name(destination_);
  node_set_.insert(destination_);
}

void SppInstance::add_edge(const std::string& u, const std::string& v) {
  check_node_name(u);
  check_node_name(v);
  if (u == v) throw InvalidArgument("self-loop edge at '" + u + "'");
  node_set_.insert(u);
  node_set_.insert(v);
  const std::string& low = u < v ? u : v;
  const std::string& high = u < v ? v : u;
  if (edge_set_.emplace(low, high).second) edges_.emplace_back(low, high);
}

bool SppInstance::has_edge(const std::string& u, const std::string& v) const {
  using Key = std::pair<std::string_view, std::string_view>;
  return edge_set_.contains(u < v ? Key(u, v) : Key(v, u));
}

void SppInstance::add_permitted_path(Path path) {
  if (path.size() < 2) {
    throw InvalidArgument("permitted path must have at least two nodes");
  }
  if (path.back() != destination_) {
    throw InvalidArgument("permitted path " + path_name(path) +
                          " must end at destination '" + destination_ + "'");
  }
  if (path.front() == destination_) {
    throw InvalidArgument("permitted path may not start at the destination");
  }
  // Pairwise: paths are a handful of hops, and a scan allocates nothing.
  for (std::size_t i = 1; i < path.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (path[i] == path[j]) {
        throw InvalidArgument("permitted path " + path_name(path) +
                              " is not simple");
      }
    }
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!has_edge(path[i], path[i + 1])) {
      throw InvalidArgument("permitted path " + path_name(path) +
                            " uses undeclared edge " + path[i] + "-" +
                            path[i + 1]);
    }
  }
  std::vector<Path>& ranked = permitted_[path.front()];
  if (std::find(ranked.begin(), ranked.end(), path) != ranked.end()) {
    throw InvalidArgument("permitted path " + path_name(path) +
                          " is listed twice at " + path.front());
  }
  ranked.push_back(std::move(path));
}

std::vector<std::string> SppInstance::nodes() const {
  std::vector<std::string> out;
  for (const std::string& node : node_set_) {
    if (node != destination_) out.push_back(node);
  }
  return out;
}

const std::vector<Path>& SppInstance::permitted(const std::string& node) const {
  const auto it = permitted_.find(node);
  return it == permitted_.end() ? k_no_paths : it->second;
}

std::optional<std::size_t> SppInstance::rank_of(const Path& path) const {
  if (path.empty()) return std::nullopt;
  const auto& ranked = permitted(path.front());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i] == path) return i;
  }
  return std::nullopt;
}

std::size_t SppInstance::permitted_path_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [node, paths] : permitted_) {
    (void)node;
    n += paths.size();
  }
  return n;
}

std::optional<Path> best_consistent_choice(const SppInstance& instance,
                                           const std::string& node,
                                           const Assignment& chosen) {
  for (const Path& candidate : instance.permitted(node)) {
    if (candidate.size() == 2) return candidate;  // direct to destination
    const std::string& next_hop = candidate[1];
    const auto it = chosen.find(next_hop);
    if (it == chosen.end()) continue;
    const Path& next_path = it->second;
    if (candidate.size() != next_path.size() + 1) continue;
    if (std::equal(candidate.begin() + 1, candidate.end(),
                   next_path.begin())) {
      return candidate;
    }
  }
  return std::nullopt;
}

bool is_stable_assignment(const SppInstance& instance,
                          const Assignment& assignment) {
  for (const std::string& node : instance.nodes()) {
    const auto best = best_consistent_choice(instance, node, assignment);
    const auto it = assignment.find(node);
    const bool has = it != assignment.end();
    if (best.has_value() != has ||
        (best.has_value() && has && *best != it->second)) {
      return false;
    }
  }
  return true;
}

BudgetedEnumeration enumerate_stable_assignments_budgeted(
    const SppInstance& instance, std::uint64_t max_states,
    std::size_t max_solutions) {
  const std::vector<std::string> nodes = instance.nodes();
  BudgetedEnumeration result;
  std::vector<std::size_t> choice(nodes.size(), 0);  // index; size() = none

  const auto current_assignment = [&]() {
    Assignment assignment;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& paths = instance.permitted(nodes[i]);
      if (choice[i] < paths.size()) {
        assignment[nodes[i]] = paths[choice[i]];
      }
    }
    return assignment;
  };

  while (result.states_scanned < max_states) {
    ++result.states_scanned;
    Assignment assignment = current_assignment();
    if (is_stable_assignment(instance, assignment)) {
      result.assignments.push_back(std::move(assignment));
    }

    // Advance the mixed-radix counter.
    std::size_t i = 0;
    for (; i < nodes.size(); ++i) {
      if (choice[i] < instance.permitted(nodes[i]).size()) {
        ++choice[i];
        break;
      }
      choice[i] = 0;
    }
    if (i == nodes.size()) {
      result.complete = true;
      result.stopped_by = EnumerationStop::completed;
      return result;
    }
    if (result.assignments.size() >= max_solutions) {
      result.stopped_by = EnumerationStop::solution_budget;
      return result;
    }
  }
  result.stopped_by = EnumerationStop::state_budget;
  return result;
}

std::vector<Assignment> enumerate_stable_assignments(
    const SppInstance& instance, std::uint64_t max_states) {
  // Search space: each node picks one permitted path or none.
  std::uint64_t states = 1;
  for (const std::string& node : instance.nodes()) {
    const std::uint64_t options = instance.permitted(node).size() + 1;
    if (states > max_states / options) {
      throw InvalidArgument(
          "SPP instance '" + instance.name() +
          "' is too large for exhaustive stable-state enumeration");
    }
    states *= options;
  }
  BudgetedEnumeration scan =
      enumerate_stable_assignments_budgeted(instance, states);
  return std::move(scan.assignments);
}

}  // namespace fsr::spp
