// Decision procedure for integer difference logic.
//
// Every constraint FSR generates reduces to the form  x - y <= c  over
// integer variables (a strict `x < y` is `x - y <= -1` because the domain
// is the integers). A conjunction of such constraints is satisfiable iff
// the corresponding constraint graph — an edge y --c--> x for each
// x - y <= c — has no negative-weight cycle (a classical result; see e.g.
// Cormen et al., "difference constraints and shortest paths").
//
// IncrementalDiffEngine is the decision procedure every smt::Context check
// runs on. It additionally:
//   * extracts the least model (shortest distances from a super-source)
//     when satisfiable;
//   * reports the set of constraints on a negative cycle when
//     unsatisfiable, which seeds the minimal unsat-core computation in
//     Context.
// solve_difference_system is the batch Bellman-Ford formulation of the
// same question. No solver path calls it; tests keep it as the referee the
// incremental engine's verdicts, models and cores are checked against.
#ifndef FSR_SMT_DIFFERENCE_ENGINE_H
#define FSR_SMT_DIFFERENCE_ENGINE_H

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace fsr::smt {

/// Dense variable index; variable 0 is reserved by callers for the
/// implicit "zero" variable used to encode bounds against constants.
using DiffVar = std::int32_t;

/// One difference constraint: minuend - subtrahend <= bound, tagged with an
/// opaque caller-supplied id (FSR uses the assertion id) for core reporting.
struct DiffConstraint {
  DiffVar minuend = 0;
  DiffVar subtrahend = 0;
  std::int64_t bound = 0;
  std::int64_t tag = 0;
};

/// Result of a feasibility check.
struct DiffResult {
  bool satisfiable = false;
  /// When satisfiable: one value per variable (size == variable_count).
  /// The assignment is normalised so that variable 0 maps to 0.
  std::vector<std::int64_t> model;
  /// When unsatisfiable: tags of the constraints forming a negative cycle.
  /// Duplicates are removed; order follows the cycle.
  std::vector<std::int64_t> conflict_tags;
};

/// Checks feasibility of `constraints` over `variable_count` integer
/// variables using Bellman-Ford with a virtual super-source, in O(V * E).
/// The test referee for IncrementalDiffEngine: its model is the same least
/// model IncrementalDiffEngine::model() returns.
DiffResult solve_difference_system(std::int32_t variable_count,
                                   const std::vector<DiffConstraint>& constraints);

/// Incremental difference-logic engine (Cotton-Maler style).
///
/// Maintains a feasible potential function over the constraint graph so
/// that each added constraint costs only a local Dijkstra-like repair on
/// reduced costs — O(1) when the new edge is already satisfied — instead of
/// a full O(V * E) Bellman-Ford pass. push()/pop() snapshot the engine so a
/// caller can layer temporary constraints (assumption-based checks, repair
/// candidates, core-minimisation probes) on a shared base without ever
/// rebuilding it. This is what makes the repair engine's hundreds of
/// near-identical re-checks cheap.
///
/// Thread-compatibility: a mutable single-thread object with no global
/// state; distinct instances on distinct threads never interfere (same
/// contract as Context, which owns one per solver session).
class IncrementalDiffEngine {
 public:
  /// Starts with `variable_count` variables, all at potential 0. Callers
  /// reserve variable 0 as the implicit zero variable.
  explicit IncrementalDiffEngine(std::int32_t variable_count = 1);

  std::int32_t variable_count() const noexcept {
    return static_cast<std::int32_t>(potentials_.size());
  }
  std::size_t constraint_count() const noexcept { return edges_.size(); }

  /// Adds a variable with the given initial potential and returns its
  /// index. Choosing the potential so the variable's already-known bounds
  /// hold (e.g. potential(0) + lower_bound before adding the type
  /// constraint) makes the subsequent add() a no-repair fast path.
  std::int32_t add_variable(std::int64_t potential);

  std::int64_t potential(std::int32_t variable) const;

  /// Adds a constraint and repairs the potential function. Returns false
  /// when the constraint closes a negative cycle: the engine becomes
  /// infeasible, conflict_tags() names the cycle, and it stays infeasible
  /// (later adds are recorded but not solved) until the offending scope is
  /// popped.
  bool add(const DiffConstraint& constraint);

  bool feasible() const noexcept { return feasible_; }

  /// Tags of the constraints on the detected negative cycle, in cycle
  /// order with duplicates removed. Meaningful only when !feasible().
  const std::vector<std::int64_t>& conflict_tags() const noexcept {
    return conflict_tags_;
  }

  /// The least model: one value per variable, each the shortest distance
  /// from an implicit super-source with a 0-weight edge to every variable,
  /// shifted so variable 0 sits at 0. One Dijkstra over the reduced costs
  /// of the current potentials; the values equal solve_difference_system's
  /// model for the same constraints. Requires feasible().
  std::vector<std::int64_t> model() const;

  /// Snapshots constraints, potentials and feasibility; pop() restores the
  /// snapshot exactly (constraints added in the scope are discarded).
  void push();
  void pop();
  std::size_t scope_depth() const noexcept { return scopes_.size(); }

 private:
  struct Edge {
    DiffVar from = 0;  // subtrahend
    DiffVar to = 0;    // minuend:  to - from <= weight
    std::int64_t weight = 0;
    std::int64_t tag = 0;
  };
  struct Scope {
    std::size_t edge_count = 0;
    std::size_t var_count = 0;
    std::vector<std::int64_t> potentials;
    bool feasible = true;
    std::vector<std::int64_t> conflict_tags;
  };

  using QueueEntry = std::pair<std::int64_t, std::size_t>;

  /// add()'s potential repair from the violated edge u --> v; false when
  /// it closes a negative cycle (recorded in conflict_tags_).
  bool repair(std::size_t u, std::size_t v, std::int64_t slack,
              std::int32_t edge_index);

  std::vector<Edge> edges_;
  std::vector<std::vector<std::int32_t>> out_;  // var -> indices into edges_
  std::vector<std::int64_t> potentials_;
  bool feasible_ = true;
  std::vector<std::int64_t> conflict_tags_;
  std::vector<Scope> scopes_;

  // repair()'s scratch, kept across calls so a repairing add allocates
  // nothing once warm. Between calls every entry is clear (gamma 0,
  // parent -1, unsettled); `touched_` lists the entries a repair wrote.
  std::vector<std::int64_t> gamma_;
  std::vector<std::int32_t> parent_edge_;
  std::vector<char> settled_;
  std::vector<std::size_t> touched_;
  std::vector<QueueEntry> heap_;
};

}  // namespace fsr::smt

#endif  // FSR_SMT_DIFFERENCE_ENGINE_H
