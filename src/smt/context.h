// Solver context: named assertions, satisfiability checking, model
// extraction and minimal unsat cores.
//
// This is the component that stands in for Yices in the FSR pipeline
// (Figure 1 of the paper). It accepts the same logical content FSR's
// encoding produces — integer variables that are positive by type,
// conjunctions of <, <=, = atoms, and universally quantified linear
// templates — decides satisfiability exactly, and reproduces the two
// Yices behaviours the toolkit relies on:
//
//   * on `sat`, a concrete model (e.g. C=1, P=2, R=2 for the monotone
//     Gao-Rexford encoding in Section IV-C);
//   * on `unsat`, a *minimal* unsatisfiable core of the user's assertions,
//     which FSR maps back to the offending policy constraints.
#ifndef FSR_SMT_CONTEXT_H
#define FSR_SMT_CONTEXT_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "smt/difference_engine.h"
#include "smt/term.h"

namespace fsr::smt {

enum class Status { sat, unsat };

/// Identifier returned by assert_term. Ids are drawn from a monotonically
/// increasing counter that is never reused, so an id stays stable across
/// retracts, reasserts and scope pops (an id popped out of existence is
/// simply rejected by later calls, never recycled for a new assertion).
using AssertionId = std::int64_t;

/// Variable assignment for a satisfiable check: the least model, i.e.
/// shortest-path distances from a super-source shifted so the implicit zero
/// variable sits at 0, which matches the instances Yices prints for FSR's
/// encodings. Every check returns this same model.
struct Model {
  std::map<std::string, std::int64_t> values;

  std::int64_t at(const std::string& name) const;
};

struct CheckResult {
  Status status = Status::sat;
  Model model;                          // meaningful when status == sat
  std::vector<AssertionId> unsat_core;  // meaningful when status == unsat
};

/// An assertion context in the style of an SMT solver session.
///
/// Every check runs on IncrementalDiffEngine: check() on a cached engine,
/// check_subset() on a fresh one. Both seed the unsat core from the
/// engine's negative cycle and minimise it the same way, so the same
/// constraint set yields the same core whichever entry point asks.
///
/// Thread-compatibility: a Context is a mutable single-thread object — no
/// internal synchronization; check() mutates a cached IncrementalDiffEngine
/// — so a Context must be confined to one thread at a time. There is NO
/// hidden global/static state anywhere in the smt layer (audited 2026-07),
/// so distinct Context instances on distinct threads never interfere; that
/// is the contract the parallel campaign runner relies on (one solver
/// session per worker).
///
/// Usage:
///   Context ctx;
///   ctx.declare_variable("C");
///   ctx.declare_variable("P");
///   auto id = ctx.assert_term(Term::lt(Term::variable("C"),
///                                      Term::variable("P")), "C < P");
///   CheckResult r = ctx.check();
class Context {
 public:
  /// Declares an integer variable with an optional lower bound enforced as
  /// a *type* constraint: always active, never reported in unsat cores,
  /// exactly like a Yices subtype bound. FSR's signatures are subtypes of
  /// nat with n > 0, hence the default bound of 1; pass 0 for `nat` and
  /// std::nullopt for unbounded `int`. Declarations are NOT scoped: pop()
  /// discards scope-local assertions but keeps every declared variable.
  void declare_variable(const std::string& name,
                        std::optional<std::int64_t> lower_bound = 1);

  bool has_variable(const std::string& name) const;

  /// Asserts a relational or universally quantified term. The optional
  /// label is used in reports; when empty the term's own rendering is used.
  /// Throws fsr::InvalidArgument for terms outside the supported fragment
  /// or referencing undeclared variables.
  AssertionId assert_term(const Term& term, std::string label = {});

  /// Convenience wrappers for the three atom shapes FSR generates.
  AssertionId assert_less(const std::string& lhs, const std::string& rhs,
                          std::string label = {});
  AssertionId assert_less_equal(const std::string& lhs, const std::string& rhs,
                                std::string label = {});
  AssertionId assert_equal(const std::string& lhs, const std::string& rhs,
                           std::string label = {});

  /// Deactivates an assertion (used to remove unsat cores one at a time,
  /// the iterative repair workflow described in Section IV-B).
  void retract(AssertionId id);

  /// Re-activates a previously retracted assertion under its original id.
  void reassert(AssertionId id);

  bool is_active(AssertionId id) const;

  /// Opens an assertion scope. pop() removes every assertion made since the
  /// matching push() and undoes retract/reassert flips performed inside the
  /// scope. The repair engine layers per-candidate constraints this way on
  /// a shared base session.
  void push();
  void pop();
  std::size_t scope_depth() const noexcept { return scopes_.size(); }

  /// Checks (all active assertions) AND (the given assumptions, activated
  /// for this call regardless of retraction). Reuses a cached incremental
  /// difference engine across calls: the engine's base holds the active
  /// assertions below the outermost live scope, so repeated checks that
  /// only vary assumptions or scope-local assertions never rebuild it. On
  /// sat the result carries the least model; on unsat a minimal core that
  /// may name both active assertions and assumptions.
  /// `extract_model = false` skips model construction on sat — callers that
  /// only branch on the status (the repair loop) save the Dijkstra and the
  /// map-building cost per check.
  CheckResult check(const std::vector<AssertionId>& assumptions = {},
                    bool extract_model = true);

  /// Checks only the given assertions (plus type constraints) on a fresh
  /// engine. Exposed for tests and the from-scratch ablation benchmark.
  CheckResult check_subset(const std::vector<AssertionId>& ids) const;

  /// Human-readable description of an assertion: its label when provided,
  /// otherwise the asserted term.
  std::string describe(AssertionId id) const;

  std::size_t active_assertion_count() const noexcept;
  std::size_t variable_count() const noexcept { return variables_.size(); }

  /// Instrumentation for the incremental path (bench_repair's ablation).
  std::uint64_t incremental_check_count() const noexcept {
    return stat_incremental_checks_;
  }
  std::uint64_t incremental_rebuild_count() const noexcept {
    return stat_engine_rebuilds_;
  }

 private:
  struct VariableInfo {
    std::string name;
    std::optional<std::int64_t> lower_bound;
  };

  // One assertion, pre-lowered at assert time into difference constraints
  // over variable indices (tagged with the assertion id), or a decided
  // truth value for quantified/constant assertions.
  struct AssertionInfo {
    AssertionId id = 0;
    std::string label;
    std::string text;
    bool active = true;
    bool trivially_false = false;  // e.g. a failed forall schema
    std::vector<DiffConstraint> constraints;
  };

  struct ScopeInfo {
    std::size_t assertion_count = 0;
    // (id, previous active flag) for every retract/reassert in the scope,
    // in application order; pop() replays them in reverse.
    std::vector<std::pair<AssertionId, bool>> flag_changes;
  };

  std::int32_t variable_index(const std::string& name) const;
  std::size_t index_for(AssertionId id, const char* who) const;
  AssertionInfo& info_for(AssertionId id, const char* who);
  const AssertionInfo& info_for(AssertionId id, const char* who) const;
  void record_flag_change(AssertionId id, bool previous);
  void lower_relation(const Term& term, AssertionInfo& out) const;
  void lower_forall(const Term& term, AssertionInfo& out) const;
  void add_variables(IncrementalDiffEngine& engine) const;
  CheckResult conclude(const IncrementalDiffEngine& engine,
                       bool extract_model) const;
  std::vector<AssertionId> minimize_core(
      const std::vector<AssertionId>& candidate) const;
  void sync_engine_base();

  std::vector<VariableInfo> variables_;
  std::map<std::string, std::int32_t> variable_ids_;
  std::vector<AssertionInfo> assertions_;
  std::map<AssertionId, std::size_t> id_to_index_;
  AssertionId next_id_ = 0;
  std::vector<ScopeInfo> scopes_;
  // Count of active decided-false assertions, so the incremental check's
  // hot path skips the O(n) scan when (as almost always) there are none.
  std::size_t active_trivial_count_ = 0;
  // Bumped by every mutation that can change the engine base (declares,
  // base-level asserts, flag flips, pops); when unchanged since the last
  // sync, check(assumptions) skips base recomputation entirely.
  std::uint64_t base_revision_ = 0;

  // Cached incremental engine (see check(assumptions)). base_ids_ lists the
  // active below-scope assertions synced into the engine; a base change
  // that is not a pure addition forces a rebuild.
  std::optional<IncrementalDiffEngine> engine_;
  std::vector<AssertionId> engine_base_ids_;
  std::uint64_t engine_base_revision_ = 0;
  bool engine_synced_once_ = false;
  std::uint64_t stat_incremental_checks_ = 0;
  std::uint64_t stat_engine_rebuilds_ = 0;
};

}  // namespace fsr::smt

#endif  // FSR_SMT_CONTEXT_H
