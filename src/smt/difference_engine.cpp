#include "smt/difference_engine.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>

#include "util/error.h"

namespace fsr::smt {
namespace {

constexpr std::int64_t k_unreached = std::numeric_limits<std::int64_t>::max();

}  // namespace

DiffResult solve_difference_system(
    std::int32_t variable_count,
    const std::vector<DiffConstraint>& constraints) {
  if (variable_count <= 0) {
    throw InvalidArgument("difference system needs at least one variable");
  }
  for (const DiffConstraint& c : constraints) {
    if (c.minuend < 0 || c.minuend >= variable_count || c.subtrahend < 0 ||
        c.subtrahend >= variable_count) {
      throw InvalidArgument("difference constraint references unknown variable");
    }
  }

  // Bellman-Ford with an implicit super-source: initialise every distance
  // to 0 rather than materialising source edges. dist[v] then converges to
  // the shortest distance from the super-source; an edge that can still be
  // relaxed after V-1 rounds lies on (or reaches) a negative cycle.
  const std::size_t n = static_cast<std::size_t>(variable_count);
  std::vector<std::int64_t> dist(n, 0);
  // predecessor edge index used to reconstruct the negative cycle.
  std::vector<std::int64_t> parent_edge(n, -1);

  auto relax_round = [&]() -> std::optional<std::size_t> {
    std::optional<std::size_t> last_relaxed;
    for (std::size_t e = 0; e < constraints.size(); ++e) {
      const DiffConstraint& c = constraints[e];
      // x - y <= bound  =>  edge y -> x with weight `bound`.
      const auto y = static_cast<std::size_t>(c.subtrahend);
      const auto x = static_cast<std::size_t>(c.minuend);
      if (dist[y] == k_unreached) continue;
      const std::int64_t candidate = dist[y] + c.bound;
      if (candidate < dist[x]) {
        dist[x] = candidate;
        parent_edge[x] = static_cast<std::int64_t>(e);
        last_relaxed = x;
      }
    }
    return last_relaxed;
  };

  std::optional<std::size_t> relaxed_in_last_round;
  for (std::int32_t round = 0; round < variable_count; ++round) {
    relaxed_in_last_round = relax_round();
    if (!relaxed_in_last_round.has_value()) break;
  }

  DiffResult result;
  if (!relaxed_in_last_round.has_value()) {
    result.satisfiable = true;
    result.model.resize(n);
    // dist itself is a feasible assignment; shift so variable 0 sits at 0,
    // which keeps the assignment feasible (difference constraints are
    // translation invariant) and gives deterministic, readable models.
    const std::int64_t shift = dist[0];
    for (std::size_t v = 0; v < n; ++v) result.model[v] = dist[v] - shift;
    return result;
  }

  // A vertex relaxed in round V lies on or downstream of a negative cycle.
  // Walk parents V times to land inside the cycle, then collect it. If the
  // parent chain is ever broken (possible only in degenerate edge orders)
  // fall back to reporting every constraint; the deletion-based minimiser
  // in Context reduces over-approximated conflicts to a minimal core.
  const auto fallback_all_tags = [&constraints]() {
    std::vector<std::int64_t> tags;
    tags.reserve(constraints.size());
    for (const DiffConstraint& c : constraints) tags.push_back(c.tag);
    return tags;
  };

  std::vector<std::int64_t> tags;
  std::size_t probe = *relaxed_in_last_round;
  bool chain_ok = true;
  for (std::int32_t i = 0; i < variable_count && chain_ok; ++i) {
    if (parent_edge[probe] < 0) {
      chain_ok = false;
      break;
    }
    probe = static_cast<std::size_t>(
        constraints[static_cast<std::size_t>(parent_edge[probe])].subtrahend);
  }
  if (chain_ok) {
    // `probe` is now on the cycle; walk it once, recording edge tags. Bound
    // the walk by V+1 steps as a defensive limit.
    std::size_t cursor = probe;
    for (std::int32_t steps = 0; steps <= variable_count; ++steps) {
      if (parent_edge[cursor] < 0) {
        chain_ok = false;
        break;
      }
      const auto edge_index = static_cast<std::size_t>(parent_edge[cursor]);
      tags.push_back(constraints[edge_index].tag);
      cursor = static_cast<std::size_t>(constraints[edge_index].subtrahend);
      if (cursor == probe) break;
      if (steps == variable_count) chain_ok = false;
    }
  }
  if (!chain_ok) tags = fallback_all_tags();

  // Deduplicate tags while preserving cycle order (an equality contributes
  // two edges with the same tag; both may appear on the cycle).
  std::vector<std::int64_t> unique_tags;
  for (const std::int64_t tag : tags) {
    if (std::find(unique_tags.begin(), unique_tags.end(), tag) ==
        unique_tags.end()) {
      unique_tags.push_back(tag);
    }
  }

  result.satisfiable = false;
  result.conflict_tags = std::move(unique_tags);
  return result;
}

IncrementalDiffEngine::IncrementalDiffEngine(std::int32_t variable_count) {
  if (variable_count <= 0) {
    throw InvalidArgument("incremental engine needs at least one variable");
  }
  potentials_.assign(static_cast<std::size_t>(variable_count), 0);
  out_.resize(static_cast<std::size_t>(variable_count));
}

std::int32_t IncrementalDiffEngine::add_variable(std::int64_t potential) {
  const auto index = static_cast<std::int32_t>(potentials_.size());
  potentials_.push_back(potential);
  out_.emplace_back();
  return index;
}

std::int64_t IncrementalDiffEngine::potential(std::int32_t variable) const {
  if (variable < 0 || variable >= variable_count()) {
    throw InvalidArgument("incremental engine: unknown variable");
  }
  return potentials_[static_cast<std::size_t>(variable)];
}

bool IncrementalDiffEngine::add(const DiffConstraint& constraint) {
  if (constraint.minuend < 0 || constraint.minuend >= variable_count() ||
      constraint.subtrahend < 0 || constraint.subtrahend >= variable_count()) {
    throw InvalidArgument("difference constraint references unknown variable");
  }
  const auto u = static_cast<std::size_t>(constraint.subtrahend);
  const auto v = static_cast<std::size_t>(constraint.minuend);
  const auto edge_index = static_cast<std::int32_t>(edges_.size());
  edges_.push_back(Edge{constraint.subtrahend, constraint.minuend,
                        constraint.bound, constraint.tag});
  out_[u].push_back(edge_index);

  // Once infeasible the conflict is already recorded; later additions are
  // kept (so pop() bookkeeping stays simple) but not solved.
  if (!feasible_) return false;

  const std::int64_t slack = potentials_[u] + constraint.bound - potentials_[v];
  if (slack >= 0) return true;

  const bool repaired = repair(u, v, slack, edge_index);
  // Only the entries this repair wrote need clearing for the next one.
  for (const std::size_t x : touched_) {
    gamma_[x] = 0;
    parent_edge_[x] = -1;
    settled_[x] = 0;
  }
  touched_.clear();
  return repaired;
}

bool IncrementalDiffEngine::repair(std::size_t u, std::size_t v,
                                   std::int64_t slack,
                                   std::int32_t edge_index) {
  // Cotton-Maler repair: Dijkstra on reduced costs from the edge's target.
  // gamma_[x] is the (negative) amount potentials_[x] must still decrease;
  // popping the edge's *source* with a negative gamma means the new edge
  // closes a negative cycle. The scratch arrays arrive all clear.
  const std::size_t n = potentials_.size();
  if (gamma_.size() < n) {
    gamma_.resize(n, 0);
    parent_edge_.resize(n, -1);
    settled_.resize(n, 0);
  }
  // A min-heap over (gamma, variable), as std::priority_queue with
  // std::greater keeps it, on storage that outlives the call.
  const auto later = std::greater<QueueEntry>();
  heap_.clear();
  gamma_[v] = slack;
  parent_edge_[v] = edge_index;
  touched_.push_back(v);
  heap_.emplace_back(slack, v);

  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [g, s] = heap_.back();
    heap_.pop_back();
    if (settled_[s] != 0 || g != gamma_[s]) continue;  // stale entry
    if (gamma_[s] >= 0) break;
    if (s == u) {
      // Negative cycle: the new edge plus the parent-edge path back to it.
      feasible_ = false;
      conflict_tags_.clear();
      std::size_t cursor = u;
      do {
        const Edge& edge =
            edges_[static_cast<std::size_t>(parent_edge_[cursor])];
        if (std::find(conflict_tags_.begin(), conflict_tags_.end(),
                      edge.tag) == conflict_tags_.end()) {
          conflict_tags_.push_back(edge.tag);
        }
        cursor = static_cast<std::size_t>(edge.from);
      } while (cursor != u);
      return false;
    }
    settled_[s] = 1;
    potentials_[s] += gamma_[s];
    gamma_[s] = 0;
    for (const std::int32_t e : out_[s]) {
      const Edge& edge = edges_[static_cast<std::size_t>(e)];
      const auto t = static_cast<std::size_t>(edge.to);
      if (settled_[t] != 0) continue;
      const std::int64_t candidate =
          potentials_[s] + edge.weight - potentials_[t];
      if (candidate < gamma_[t]) {
        if (parent_edge_[t] == -1) touched_.push_back(t);  // first write
        gamma_[t] = candidate;
        parent_edge_[t] = e;
        heap_.emplace_back(candidate, t);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  return true;
}

std::vector<std::int64_t> IncrementalDiffEngine::model() const {
  if (!feasible_) {
    throw InvalidArgument("incremental engine is infeasible; no model");
  }
  // Shortest distances from an implicit super-source with a 0-weight edge
  // to every variable. The feasible potentials make every reduced cost
  // potential[from] + weight - potential[to] non-negative, so one Dijkstra
  // finds them; placing the source at the highest potential makes its own
  // edges non-negative too.
  const std::size_t n = potentials_.size();
  const std::int64_t top =
      *std::max_element(potentials_.begin(), potentials_.end());
  std::vector<std::int64_t> reduced(n);
  std::vector<char> settled(n, 0);
  using QueueEntry = std::pair<std::int64_t, std::size_t>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  for (std::size_t v = 0; v < n; ++v) {
    reduced[v] = top - potentials_[v];
    queue.emplace(reduced[v], v);
  }
  while (!queue.empty()) {
    const auto [d, s] = queue.top();
    queue.pop();
    if (settled[s] != 0) continue;
    settled[s] = 1;
    for (const std::int32_t e : out_[s]) {
      const Edge& edge = edges_[static_cast<std::size_t>(e)];
      const auto t = static_cast<std::size_t>(edge.to);
      const std::int64_t candidate =
          d + potentials_[s] + edge.weight - potentials_[t];
      if (candidate < reduced[t]) {
        reduced[t] = candidate;
        queue.emplace(candidate, t);
      }
    }
  }
  // The true distance is reduced[v] - top + potentials_[v]; shifting so
  // variable 0 sits at 0 cancels `top`.
  std::vector<std::int64_t> values(n);
  const std::int64_t shift = reduced[0] + potentials_[0];
  for (std::size_t v = 0; v < n; ++v) {
    values[v] = reduced[v] + potentials_[v] - shift;
  }
  return values;
}

void IncrementalDiffEngine::push() {
  Scope scope;
  scope.edge_count = edges_.size();
  scope.var_count = potentials_.size();
  scope.potentials = potentials_;
  scope.feasible = feasible_;
  scope.conflict_tags = conflict_tags_;
  scopes_.push_back(std::move(scope));
}

void IncrementalDiffEngine::pop() {
  if (scopes_.empty()) {
    throw InvalidArgument("incremental engine: pop without matching push");
  }
  Scope scope = std::move(scopes_.back());
  scopes_.pop_back();
  while (edges_.size() > scope.edge_count) {
    out_[static_cast<std::size_t>(edges_.back().from)].pop_back();
    edges_.pop_back();
  }
  potentials_ = std::move(scope.potentials);
  out_.resize(scope.var_count);
  feasible_ = scope.feasible;
  conflict_tags_ = std::move(scope.conflict_tags);
}

}  // namespace fsr::smt
