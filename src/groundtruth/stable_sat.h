// SAT encoding of the stable-paths problem (the conflict-driven
// ground-truth oracle behind engine.h).
//
// A stable assignment picks, per node, one permitted path or none, such
// that every node's pick is its best consistent choice (spp.h). That
// condition is exactly a CNF over one Boolean per (node, permitted path)
// pair plus one "routes to nothing" Boolean per node:
//
//   * exactly-one: each node selects exactly one option;
//   * consistency: a non-direct path requires its next hop to select the
//     path's one-step suffix;
//   * bestness:    selecting a path (or nothing) forbids the availability
//                  of every better-ranked alternative — a direct better
//                  path yields a unit clause (the ranking structure the
//                  solver unit-propagates before ever branching), a
//                  transit one a binary clause against its suffix.
//
// The CDCL solver (sat_solver.h) then decides existence, and enumerates
// stable assignments up to a bound by re-solving under blocking clauses.
// Everything is deterministic in the instance alone.
//
// Two entry points share the encoding:
//
//   * solve_stable_assignments — one-shot: encode the instance from
//     scratch, decide, enumerate. The PR-3 behaviour, kept as the
//     differential cross-check against the session below.
//   * StableSatSession — incremental: encode a BASE instance once, then
//     answer a stream of "what if node X ranked its paths like THIS?"
//     queries. Only the clauses that depend on a node's ranking ORDER and
//     MEMBERSHIP (its bestness and route-to-nothing clauses) live in
//     retractable clause groups (sat_solver.h); exactly-one and
//     consistency clauses are rank-independent and permanent. A query
//     activates one ranking group per node via assumption literals; edited
//     rankings are encoded as fresh groups (a per-node CNF delta, cached
//     across queries), and a dropped path is forced off by a membership
//     unit inside the edited group — every other effect of the drop
//     (upstream paths losing their suffix, bestness clauses that mention
//     it) follows by unit propagation. Per-query blocking clauses go into
//     a throwaway group retired when the query ends, so enumeration never
//     leaks constraints into the next query. This is how the repair
//     engine validates hundreds of candidate edits against one persistent
//     solver instead of re-encoding each edited instance from scratch.
#ifndef FSR_GROUNDTRUTH_STABLE_SAT_H
#define FSR_GROUNDTRUTH_STABLE_SAT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "groundtruth/sat_solver.h"
#include "spp/path_index.h"
#include "spp/spp.h"

namespace fsr::groundtruth {

/// Which budget cut a search short. `none` means no budget interfered
/// (verdict and count are exact); `solutions` means the existence verdict
/// is exact but enumeration stopped at the solution bound (count is a
/// floor); `conflicts`/`states` mean the backend's effort budget ran out.
enum class BudgetStop { none, states, conflicts, solutions };

const char* to_string(BudgetStop stop) noexcept;

struct StableSearchStats {
  std::uint64_t variables = 0;
  std::uint64_t clauses = 0;       // encoded clauses (units included)
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t learned_clauses = 0;
};

struct StableSearchResult {
  /// False only when the conflict budget ran out before a verdict; every
  /// other field is then meaningless.
  bool decided = false;
  bool has_stable = false;
  /// Distinct stable assignments found, capped at `max_solutions`;
  /// `count_exact` marks whether enumeration finished under the cap.
  std::size_t count = 0;
  bool count_exact = false;
  /// Which budget (if any) stopped the search: `conflicts` when the
  /// conflict cap ran out (possibly mid-enumeration), `solutions` when the
  /// solution bound was reached first.
  BudgetStop budget_stop = BudgetStop::none;
  /// Found assignments in canonical (lexicographic) order, at most
  /// `max_solutions` of them.
  std::vector<spp::Assignment> assignments;
  StableSearchStats stats;
};

/// Decides whether `instance` has a stable path assignment and enumerates
/// up to `max_solutions` of them (0 = decide existence only, still
/// returning one witness). `max_conflicts` bounds total solver effort
/// across the enumeration (0 = unbounded).
StableSearchResult solve_stable_assignments(const spp::SppInstance& instance,
                                            std::size_t max_solutions,
                                            std::uint64_t max_conflicts = 0);

/// One node's replacement ranking for an incremental session query:
/// `ranked` must list paths permitted at `node` in the session's BASE
/// instance (any subset, any order, no duplicates). Paths absent from
/// `ranked` are dropped for the query; a pure reorder is a demote-style
/// edit. Queries with an empty delta list analyze the base instance.
struct RankingDelta {
  std::string node;
  std::vector<spp::Path> ranked;
};

/// Cumulative work counters for a session (cheap diagnostics for benches
/// and the repair report).
struct StableSessionStats {
  std::uint64_t queries = 0;
  std::uint64_t base_clauses = 0;      // permanent + base ranking groups
  std::uint64_t delta_clauses = 0;     // clauses encoded after construction
  std::uint64_t groups_encoded = 0;    // ranking groups built (incl. base)
  std::uint64_t group_cache_hits = 0;  // node rankings served from cache
};

/// The incremental stable-paths oracle: one persistent CDCL solver, many
/// edited-instance queries (see the file comment for the clause-group
/// layout). analyze() answers with the same semantics — and, wherever no
/// budget is exhausted mid-query, the same verdict, count, and canonical
/// witness set — as solve_stable_assignments on the correspondingly edited
/// instance; the differential test harness sweeps exactly that agreement.
///
/// Thread-compatibility: a session is a mutable single-thread object
/// (it owns a SatSolver); distinct sessions are fully independent.
class StableSatSession {
 public:
  /// Snapshots `base` (its path index, variables, permanent clauses); the
  /// instance need not outlive the session.
  explicit StableSatSession(const spp::SppInstance& base);

  StableSatSession(const StableSatSession&) = delete;
  StableSatSession& operator=(const StableSatSession&) = delete;
  StableSatSession(StableSatSession&&) = default;
  StableSatSession& operator=(StableSatSession&&) = default;

  /// Decides/enumerates the base instance with each delta's node re-ranked
  /// as given (at most one delta per node). Throws fsr::InvalidArgument on
  /// a delta naming an unknown node or a path not permitted there in the
  /// base. `max_conflicts` bounds this query's solver effort only; the
  /// reported stats are likewise per query (clauses = newly encoded).
  StableSearchResult analyze(const std::vector<RankingDelta>& deltas,
                             std::size_t max_solutions,
                             std::uint64_t max_conflicts = 0);

  const StableSessionStats& stats() const noexcept { return stats_; }

 private:
  using NodeId = spp::PathIndex::NodeId;
  using PathId = spp::PathIndex::PathId;

  /// `node`'s base ranking as path ids.
  std::vector<PathId> base_ranking(NodeId node) const;
  /// Returns the (cached or freshly encoded) ranking group for `node`
  /// ranked as `pids`.
  GroupId ranking_group(NodeId node, const std::vector<PathId>& pids);
  void encode_ranking_group(GroupId group, NodeId node,
                            const std::vector<PathId>& pids);
  void add_group_clause(GroupId group, std::vector<Lit> literals);

  SatSolver solver_;
  spp::PathIndex index_;
  std::vector<std::int32_t> var_of_pid_;
  std::vector<std::int32_t> none_var_;   // by node id (-1: the destination)
  std::vector<GroupId> ranking_groups_;  // creation order = assumption order
  /// {node, p0, p1, ...} -> the group encoding that ranking.
  std::map<std::vector<std::uint32_t>, GroupId> group_cache_;
  std::uint64_t encoded_clauses_ = 0;  // current query's clause counter
  StableSessionStats stats_;
};

}  // namespace fsr::groundtruth

#endif  // FSR_GROUNDTRUTH_STABLE_SAT_H
