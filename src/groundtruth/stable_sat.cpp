#include "groundtruth/stable_sat.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/error.h"

namespace fsr::groundtruth {

namespace {

// Registry handles resolved once; per-query flushes below are a handful of
// relaxed atomic adds at query END — the CDCL inner loops keep their own
// cheap counters and never touch the registry.
struct SatMetrics {
  obs::Counter& queries = obs::registry().counter("sat.queries");
  obs::Counter& conflicts = obs::registry().counter("sat.conflicts");
  obs::Counter& decisions = obs::registry().counter("sat.decisions");
  obs::Counter& propagations = obs::registry().counter("sat.propagations");
  obs::Counter& learned = obs::registry().counter("sat.learned_clauses");
  obs::Counter& restarts = obs::registry().counter("sat.restarts");
  obs::Counter& groups_encoded = obs::registry().counter("sat.groups_encoded");
  obs::Counter& group_cache_hits =
      obs::registry().counter("sat.group_cache_hits");
};

SatMetrics& sat_metrics() {
  static SatMetrics metrics;
  return metrics;
}

void flush_search_effort(const char* site, const StableSearchStats& stats,
                         std::uint64_t restarts, obs::Span& span) {
  SatMetrics& metrics = sat_metrics();
  metrics.queries.add(1);
  metrics.conflicts.add(stats.conflicts);
  metrics.decisions.add(stats.decisions);
  metrics.propagations.add(stats.propagations);
  metrics.learned.add(stats.learned_clauses);
  metrics.restarts.add(restarts);
  span.arg("conflicts", stats.conflicts);
  span.arg("decisions", stats.decisions);
  span.arg("propagations", stats.propagations);
  span.arg("learned_clauses", stats.learned_clauses);
  span.arg("restarts", restarts);
  obs::record_event(obs::RecorderEventKind::solver_query, site,
                    stats.conflicts, stats.propagations);
}

}  // namespace

const char* to_string(BudgetStop stop) noexcept {
  switch (stop) {
    case BudgetStop::none:
      return "none";
    case BudgetStop::states:
      return "states";
    case BudgetStop::conflicts:
      return "conflicts";
    case BudgetStop::solutions:
      return "solutions";
  }
  return "none";
}

namespace {

/// The per-node variable block: one selector per permitted path plus the
/// trailing "routes to nothing" selector.
struct NodeVars {
  std::vector<std::int32_t> path_vars;  // index = rank
  std::int32_t none_var = -1;
};

struct Encoding {
  SatSolver solver;
  std::vector<std::string> nodes;
  std::map<std::string, NodeVars> vars;
  std::uint64_t clause_count = 0;
};

void add_counted(Encoding& encoding, std::vector<Lit> literals) {
  encoding.solver.add_clause(std::move(literals));
  ++encoding.clause_count;
}

/// Availability literal of a permitted path: the positive selector of its
/// one-step suffix at the next hop, or nullopt when the path is direct
/// (always available) — the suffix-not-permitted case (never available)
/// is signalled via `never_available`.
std::optional<Lit> availability_literal(const spp::SppInstance& instance,
                                        const Encoding& encoding,
                                        const spp::Path& path,
                                        bool& never_available) {
  never_available = false;
  if (path.size() == 2) return std::nullopt;  // direct to the destination
  const spp::Path suffix(path.begin() + 1, path.end());
  const auto rank = instance.rank_of(suffix);
  if (!rank.has_value()) {
    never_available = true;
    return std::nullopt;
  }
  const NodeVars& next_hop = encoding.vars.at(suffix.front());
  return make_lit(next_hop.path_vars[*rank], false);
}

Encoding encode(const spp::SppInstance& instance) {
  Encoding encoding;
  encoding.nodes = instance.nodes();

  for (const std::string& node : encoding.nodes) {
    NodeVars block;
    for (std::size_t i = 0; i < instance.permitted(node).size(); ++i) {
      block.path_vars.push_back(encoding.solver.new_variable());
    }
    block.none_var = encoding.solver.new_variable();
    encoding.vars.emplace(node, std::move(block));
  }

  for (const std::string& node : encoding.nodes) {
    const NodeVars& block = encoding.vars.at(node);
    const std::vector<spp::Path>& ranked = instance.permitted(node);

    // Exactly-one: at-least-one over all selectors, at-most-one pairwise.
    std::vector<Lit> at_least_one;
    for (const std::int32_t var : block.path_vars) {
      at_least_one.push_back(make_lit(var, false));
    }
    at_least_one.push_back(make_lit(block.none_var, false));
    add_counted(encoding, at_least_one);
    for (std::size_t i = 0; i < at_least_one.size(); ++i) {
      for (std::size_t j = i + 1; j < at_least_one.size(); ++j) {
        add_counted(encoding, {lit_negate(at_least_one[i]),
                               lit_negate(at_least_one[j])});
      }
    }

    for (std::size_t rank = 0; rank < ranked.size(); ++rank) {
      const Lit selected = make_lit(block.path_vars[rank], false);

      // Consistency: a selected transit path needs its suffix selected at
      // the next hop; a path whose suffix is not even permitted there can
      // never be chosen (unit clause — pure ranking structure).
      bool never_available = false;
      const auto available =
          availability_literal(instance, encoding, ranked[rank],
                               never_available);
      if (never_available) {
        add_counted(encoding, {lit_negate(selected)});
        continue;
      }
      if (available.has_value()) {
        add_counted(encoding, {lit_negate(selected), *available});
      }

      // Bestness: every better-ranked alternative must be unavailable.
      for (std::size_t better = 0; better < rank; ++better) {
        bool better_never = false;
        const auto better_available = availability_literal(
            instance, encoding, ranked[better], better_never);
        if (better_never) continue;  // that alternative can never pre-empt
        if (!better_available.has_value()) {
          // A better-ranked direct path is always available: this path can
          // never be the best consistent choice.
          add_counted(encoding, {lit_negate(selected)});
          break;
        }
        add_counted(encoding,
                    {lit_negate(selected), lit_negate(*better_available)});
      }
    }

    // Routing to nothing requires every permitted path to be unavailable.
    const Lit none = make_lit(block.none_var, false);
    for (const spp::Path& path : ranked) {
      bool never_available = false;
      const auto available =
          availability_literal(instance, encoding, path, never_available);
      if (never_available) continue;
      if (!available.has_value()) {
        add_counted(encoding, {lit_negate(none)});  // a direct path exists
        break;
      }
      add_counted(encoding, {lit_negate(none), lit_negate(*available)});
    }
  }
  return encoding;
}

spp::Assignment decode(const spp::SppInstance& instance,
                       const Encoding& encoding) {
  spp::Assignment assignment;
  for (const std::string& node : encoding.nodes) {
    const NodeVars& block = encoding.vars.at(node);
    for (std::size_t rank = 0; rank < block.path_vars.size(); ++rank) {
      if (encoding.solver.model_value(block.path_vars[rank])) {
        assignment[node] = instance.permitted(node)[rank];
        break;
      }
    }
  }
  return assignment;
}

/// The clause forbidding the model just found: some node must select a
/// different option. One literal per node (the selected one, negated).
std::vector<Lit> blocking_clause(const Encoding& encoding) {
  std::vector<Lit> clause;
  for (const std::string& node : encoding.nodes) {
    const NodeVars& block = encoding.vars.at(node);
    bool blocked = false;
    for (const std::int32_t var : block.path_vars) {
      if (encoding.solver.model_value(var)) {
        clause.push_back(make_lit(var, true));
        blocked = true;
        break;
      }
    }
    if (!blocked) clause.push_back(make_lit(block.none_var, true));
  }
  return clause;
}

}  // namespace

StableSearchResult solve_stable_assignments(const spp::SppInstance& instance,
                                            std::size_t max_solutions,
                                            std::uint64_t max_conflicts) {
  obs::Span span("sat.solve_scratch");
  span.arg("instance", instance.name());
  StableSearchResult result;
  if (instance.nodes().empty()) {
    result.decided = true;
    result.has_stable = true;
    result.count = 1;  // the empty assignment is vacuously stable
    result.count_exact = true;
    result.assignments.push_back({});
    return result;
  }

  Encoding encoding = encode(instance);
  const std::size_t target = std::max<std::size_t>(max_solutions, 1);

  while (true) {
    std::uint64_t budget = 0;
    if (max_conflicts != 0) {
      const std::uint64_t spent = encoding.solver.conflicts();
      if (spent >= max_conflicts) {  // budget gone mid-enumeration
        result.budget_stop = BudgetStop::conflicts;
        break;
      }
      budget = max_conflicts - spent;
    }
    const SolveStatus status = encoding.solver.solve(budget);
    if (status == SolveStatus::unknown) {
      result.budget_stop = BudgetStop::conflicts;
      break;
    }
    if (status == SolveStatus::unsatisfiable) {
      result.decided = true;
      result.has_stable = !result.assignments.empty();
      result.count_exact = true;
      break;
    }
    result.decided = true;
    result.has_stable = true;
    result.assignments.push_back(decode(instance, encoding));
    if (result.assignments.size() >= target) {  // count stays a floor
      result.budget_stop = BudgetStop::solutions;
      break;
    }
    encoding.solver.add_clause(blocking_clause(encoding));
  }

  // An exhausted budget with no witness yet leaves the question open.
  if (result.assignments.empty() && !result.count_exact) {
    result.decided = false;
  }
  result.count = result.assignments.size();
  std::sort(result.assignments.begin(), result.assignments.end());

  result.stats.variables =
      static_cast<std::uint64_t>(encoding.solver.variable_count());
  result.stats.clauses = encoding.clause_count;
  result.stats.conflicts = encoding.solver.conflicts();
  result.stats.decisions = encoding.solver.decisions();
  result.stats.propagations = encoding.solver.propagations();
  result.stats.learned_clauses = encoding.solver.learned_clauses();
  flush_search_effort("sat.solve_scratch", result.stats,
                      encoding.solver.restarts(), span);
  return result;
}

// ------------------------------------------------------- incremental side --

namespace {

/// Availability is fixed by the base instance: a path is direct, forever
/// unavailable (its suffix is not even base-permitted, and drop edits only
/// shrink membership), or gated on its suffix's selector.
bool never_available(const spp::PathIndex& index, spp::PathIndex::PathId pid) {
  return !index.direct(pid) && index.suffix(pid) == spp::PathIndex::k_none;
}

}  // namespace

StableSatSession::StableSatSession(const spp::SppInstance& base)
    : index_(base) {
  // Variables first (availability clauses reference other nodes' blocks):
  // per node, one selector per ranked path, then its none selector.
  none_var_.assign(index_.node_count(), -1);
  for (NodeId node = 0; node < index_.node_count(); ++node) {
    if (node == index_.destination()) continue;
    for (std::size_t rank = 0; rank < index_.ranked(node).size(); ++rank) {
      var_of_pid_.push_back(solver_.new_variable());
    }
    none_var_[node] = solver_.new_variable();
  }

  // Permanent (rank-independent) clauses: exactly-one per node and
  // consistency per path. Dropped paths are handled by membership units in
  // the edited ranking groups — a forced-off selector satisfies or prunes
  // every permanent clause that mentions it, exactly as re-encoding the
  // edited instance would.
  const auto add_permanent = [this](std::vector<Lit> literals) {
    solver_.add_clause(std::move(literals));
    ++stats_.base_clauses;
  };
  for (NodeId node = 0; node < index_.node_count(); ++node) {
    if (node == index_.destination()) continue;
    std::vector<Lit> options;
    for (const PathId pid : index_.ranked(node)) {
      options.push_back(make_lit(var_of_pid_[pid], false));
    }
    options.push_back(make_lit(none_var_[node], false));
    add_permanent(options);
    for (std::size_t i = 0; i < options.size(); ++i) {
      for (std::size_t j = i + 1; j < options.size(); ++j) {
        add_permanent({lit_negate(options[i]), lit_negate(options[j])});
      }
    }
  }
  for (PathId pid = 0; pid < index_.path_count(); ++pid) {
    const Lit selected = make_lit(var_of_pid_[pid], false);
    if (never_available(index_, pid)) {
      add_permanent({lit_negate(selected)});
    } else if (!index_.direct(pid)) {
      add_permanent({lit_negate(selected),
                     make_lit(var_of_pid_[index_.suffix(pid)], false)});
    }
  }

  // Base ranking groups, pre-seeded into the cache so an unedited node's
  // query resolves like any other ranking lookup.
  const std::uint64_t base_group_clause_floor = encoded_clauses_;
  for (NodeId node = 0; node < index_.node_count(); ++node) {
    if (node == index_.destination()) continue;
    (void)ranking_group(node, base_ranking(node));
  }
  stats_.base_clauses += encoded_clauses_ - base_group_clause_floor;
  stats_.group_cache_hits = 0;  // construction lookups are not query hits
}

std::vector<StableSatSession::PathId> StableSatSession::base_ranking(
    NodeId node) const {
  const auto ranked = index_.ranked(node);
  return {ranked.begin(), ranked.end()};
}

void StableSatSession::add_group_clause(GroupId group,
                                        std::vector<Lit> literals) {
  solver_.add_clause_in_group(group, std::move(literals));
  ++encoded_clauses_;
}

GroupId StableSatSession::ranking_group(NodeId node,
                                        const std::vector<PathId>& pids) {
  std::vector<std::uint32_t> key{node};
  key.insert(key.end(), pids.begin(), pids.end());
  const auto it = group_cache_.find(key);
  if (it != group_cache_.end()) {
    ++stats_.group_cache_hits;
    return it->second;
  }
  const GroupId group = solver_.new_group();
  ranking_groups_.push_back(group);
  ++stats_.groups_encoded;
  encode_ranking_group(group, node, pids);
  group_cache_.emplace(std::move(key), group);
  return group;
}

void StableSatSession::encode_ranking_group(GroupId group, NodeId node,
                                            const std::vector<PathId>& pids) {
  // Membership units: base paths absent from this ranking can never be
  // selected while the group is active. Everything downstream of a drop
  // (upstream consistency, bestness clauses that mention the dropped
  // path's availability) follows from these by unit propagation.
  for (const PathId pid : index_.ranked(node)) {
    if (std::find(pids.begin(), pids.end(), pid) == pids.end()) {
      add_group_clause(group, {make_lit(var_of_pid_[pid], true)});
    }
  }

  // Bestness under THIS ranking order (mirrors encode() above; consistency
  // and the never-available units are permanent, so only the rank-dependent
  // clauses are re-emitted).
  for (std::size_t rank = 0; rank < pids.size(); ++rank) {
    const PathId pid = pids[rank];
    if (never_available(index_, pid)) continue;  // permanently off
    const Lit selected = make_lit(var_of_pid_[pid], false);
    for (std::size_t better = 0; better < rank; ++better) {
      const PathId alt = pids[better];
      if (never_available(index_, alt)) continue;
      if (index_.direct(alt)) {
        // A better-ranked direct path is always available: this path can
        // never be the best consistent choice.
        add_group_clause(group, {lit_negate(selected)});
        break;
      }
      add_group_clause(group, {lit_negate(selected),
                               make_lit(var_of_pid_[index_.suffix(alt)],
                                        true)});
    }
  }

  // Routing to nothing requires every ranked path to be unavailable.
  const Lit none = make_lit(none_var_[node], false);
  for (const PathId pid : pids) {
    if (never_available(index_, pid)) continue;
    if (index_.direct(pid)) {
      add_group_clause(group, {lit_negate(none)});  // a direct path exists
      break;
    }
    add_group_clause(group, {lit_negate(none),
                             make_lit(var_of_pid_[index_.suffix(pid)], true)});
  }
}

StableSearchResult StableSatSession::analyze(
    const std::vector<RankingDelta>& deltas, std::size_t max_solutions,
    std::uint64_t max_conflicts) {
  ++stats_.queries;
  obs::Span span("sat.analyze");
  span.arg("deltas", deltas.size());
  const std::uint64_t restart_floor = solver_.restarts();
  const std::uint64_t groups_floor = stats_.groups_encoded;
  const std::uint64_t group_hits_floor = stats_.group_cache_hits;
  StableSearchResult result;
  if (index_.node_count() == 1) {  // the destination alone
    result.decided = true;
    result.has_stable = true;
    result.count = 1;  // the empty assignment is vacuously stable
    result.count_exact = true;
    result.assignments.push_back({});
    return result;
  }

  // Resolve the desired ranking (as path ids) per edited node.
  std::map<NodeId, std::vector<PathId>> desired;
  for (const RankingDelta& delta : deltas) {
    const auto node = index_.node(delta.node);
    if (!node.has_value() || *node == index_.destination()) {
      throw InvalidArgument("stable-sat session: delta names unknown node '" +
                            delta.node + "'");
    }
    std::vector<PathId> pids;
    std::set<PathId> unique;
    for (const spp::Path& path : delta.ranked) {
      const auto pid = index_.find(path);
      const bool permitted_here =
          pid.has_value() && index_.source(*pid) == *node;
      if (!permitted_here || !unique.insert(*pid).second) {
        throw InvalidArgument("stable-sat session: delta for node '" +
                              delta.node + "' lists path " +
                              spp::path_name(path) +
                              (permitted_here ? " twice"
                                              : " not base-permitted there"));
      }
      pids.push_back(*pid);
    }
    if (!desired.emplace(*node, std::move(pids)).second) {
      throw InvalidArgument("stable-sat session: two deltas for node '" +
                            delta.node + "'");
    }
  }

  const std::uint64_t conflict_floor = solver_.conflicts();
  const std::uint64_t decision_floor = solver_.decisions();
  const std::uint64_t propagation_floor = solver_.propagations();
  const std::uint64_t learned_floor = solver_.learned_clauses();
  const std::uint64_t clause_floor = encoded_clauses_;

  // One active ranking group per node; every other group is switched off
  // for this query.
  std::vector<std::vector<PathId>> ranking(index_.node_count());
  std::set<GroupId> active;
  for (NodeId node = 0; node < index_.node_count(); ++node) {
    if (node == index_.destination()) continue;
    const auto it = desired.find(node);
    ranking[node] = it != desired.end() ? it->second : base_ranking(node);
    active.insert(ranking_group(node, ranking[node]));
  }
  std::vector<Lit> assumptions;
  assumptions.reserve(ranking_groups_.size() + 1);
  for (const GroupId group : ranking_groups_) {
    assumptions.push_back(active.contains(group) ? solver_.group_enable(group)
                                                 : solver_.group_disable(group));
  }

  const std::size_t target = std::max<std::size_t>(max_solutions, 1);
  GroupId query_group = -1;
  while (true) {
    std::uint64_t budget = 0;
    if (max_conflicts != 0) {
      const std::uint64_t spent = solver_.conflicts() - conflict_floor;
      if (spent >= max_conflicts) {
        result.budget_stop = BudgetStop::conflicts;
        break;
      }
      budget = max_conflicts - spent;
    }
    const SolveStatus status = solver_.solve_under(assumptions, budget);
    if (status == SolveStatus::unknown) {
      result.budget_stop = BudgetStop::conflicts;
      break;
    }
    if (status == SolveStatus::unsatisfiable) {
      result.decided = true;
      result.has_stable = !result.assignments.empty();
      result.count_exact = true;
      break;
    }
    result.decided = true;
    result.has_stable = true;
    spp::Assignment assignment;
    std::vector<Lit> blocking;
    for (NodeId node = 0; node < index_.node_count(); ++node) {
      if (node == index_.destination()) continue;
      bool blocked = false;
      for (const PathId pid : ranking[node]) {
        const auto var = var_of_pid_[pid];
        if (solver_.model_value(var)) {
          assignment[index_.name(node)] = index_.path(pid);
          blocking.push_back(make_lit(var, true));
          blocked = true;
          break;
        }
      }
      if (!blocked) blocking.push_back(make_lit(none_var_[node], true));
    }
    result.assignments.push_back(std::move(assignment));
    if (result.assignments.size() >= target) {  // count stays a floor
      result.budget_stop = BudgetStop::solutions;
      break;
    }
    if (query_group < 0) {
      // Blocking clauses are scoped to this query: they live in a fresh
      // group, assumed active now and retired below, so the next query's
      // enumeration starts from a clean slate.
      query_group = solver_.new_group();
      assumptions.push_back(solver_.group_enable(query_group));
    }
    solver_.add_clause_in_group(query_group, std::move(blocking));
    ++encoded_clauses_;
  }
  if (query_group >= 0) solver_.retire_group(query_group);

  // An exhausted budget with no witness yet leaves the question open.
  if (result.assignments.empty() && !result.count_exact) {
    result.decided = false;
  }
  result.count = result.assignments.size();
  std::sort(result.assignments.begin(), result.assignments.end());

  stats_.delta_clauses += encoded_clauses_ - clause_floor;
  result.stats.variables =
      static_cast<std::uint64_t>(solver_.variable_count());
  result.stats.clauses = encoded_clauses_ - clause_floor;
  result.stats.conflicts = solver_.conflicts() - conflict_floor;
  result.stats.decisions = solver_.decisions() - decision_floor;
  result.stats.propagations = solver_.propagations() - propagation_floor;
  result.stats.learned_clauses = solver_.learned_clauses() - learned_floor;
  flush_search_effort("sat.analyze", result.stats,
                      solver_.restarts() - restart_floor, span);
  sat_metrics().groups_encoded.add(stats_.groups_encoded - groups_floor);
  sat_metrics().group_cache_hits.add(stats_.group_cache_hits -
                                     group_hits_floor);
  return result;
}

}  // namespace fsr::groundtruth
