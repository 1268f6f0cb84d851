// The Stable Paths Problem (SPP), Griffin-Shepherd-Wilfong.
//
// An SPP instance is a graph with a single destination, where every node
// carries a ranked list of "permitted paths" to that destination (most
// preferred first). SPP is the paper's representation for fully concrete
// policy configurations — eBGP gadgets, extracted iBGP configurations —
// and Section III-B translates instances into routing algebra for the
// safety analyzer.
//
// External routes (the r1/r2/r3 of the paper's Figure 3) are modelled as
// one-hop paths to the shared destination node, so an instance is always a
// plain single-destination SPP.
//
// This module also provides ground truth for the toolkit's verdicts:
// enumerate_stable_assignments, an exhaustive search for stable path
// assignments (GOOD gadget: exactly 1; DISAGREE: 2; BAD: none). How SPVP
// actually runs is src/sim's and src/fsr's emulation's job (see
// docs/ARCHITECTURE.md, "One SPVP semantics").
#ifndef FSR_SPP_SPP_H
#define FSR_SPP_SPP_H

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>


namespace fsr::spp {

/// A path is the node sequence from its source to the destination,
/// inclusive: {"a", "b", "e", "0"}.
using Path = std::vector<std::string>;

/// Renders "a b e 0" as "abe0" style compact text (nodes joined by '-')
/// for diagnostics and signature naming.
std::string path_name(const Path& path);

class SppInstance {
 public:
  /// `destination` is created implicitly; nodes are added on first use.
  /// Throws fsr::InvalidArgument when either name is empty or the
  /// destination contains one of '-', '~', ',', ':' or ';' — the
  /// separators path_name and canonical_spp join nodes with, so a name
  /// carrying one would render ambiguously.
  explicit SppInstance(std::string name, std::string destination = "0");

  const std::string& name() const noexcept { return name_; }
  const std::string& destination() const noexcept { return destination_; }

  /// Declares an undirected link. Throws fsr::InvalidArgument on a
  /// self-loop, an empty node name, or one containing a separator (see
  /// the constructor).
  void add_edge(const std::string& u, const std::string& v);

  /// Appends `path` to the permitted list of its source node (ranked:
  /// earlier calls are more preferred). Validates that the path starts at
  /// a non-destination node, ends at the destination, is simple, uses
  /// declared edges, and is not already permitted there (a path's rank is
  /// its identity: spp::PathIndex numbers paths by it). Throws
  /// fsr::InvalidArgument otherwise.
  void add_permitted_path(Path path);

  /// All non-destination nodes, in deterministic (sorted) order.
  std::vector<std::string> nodes() const;

  bool has_edge(const std::string& u, const std::string& v) const;
  const std::vector<std::pair<std::string, std::string>>& edges()
      const noexcept {
    return edges_;
  }

  /// Ranked permitted paths of `node` (may be empty).
  const std::vector<Path>& permitted(const std::string& node) const;

  /// Rank of `path` at its source (0 = most preferred), or nullopt if the
  /// path is not permitted there.
  std::optional<std::size_t> rank_of(const Path& path) const;

  std::size_t permitted_path_count() const noexcept;

 private:
  std::string name_;
  std::string destination_;
  /// Orders normalised edges and looks them up by string_view pairs, so
  /// has_edge copies no strings.
  struct EdgeLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const noexcept {
      return std::pair<std::string_view, std::string_view>(a.first, a.second) <
             std::pair<std::string_view, std::string_view>(b.first, b.second);
    }
  };

  std::set<std::string> node_set_;
  std::set<std::pair<std::string, std::string>, EdgeLess>
      edge_set_;  // normalised
  std::vector<std::pair<std::string, std::string>> edges_;
  std::map<std::string, std::vector<Path>> permitted_;
  static const std::vector<Path> k_no_paths;
};

/// Canonical text of an instance — destination, edges, and per-node ranked
/// permitted paths — for content identity (fingerprints, cache keys).
/// Excludes the instance name. A faithful serialisation in construction
/// order, not a sorted normal form: assertion order shapes which minimal
/// unsat core the solver reports, so only instances with identical
/// constraint streams may share an identity.
std::string canonical_spp(const SppInstance& instance);

/// A path assignment: node -> chosen permitted path (nodes routing to
/// nothing are absent).
using Assignment = std::map<std::string, Path>;

/// The path `node` would select under assignment `chosen`: its highest
/// ranked permitted path whose one-step suffix is the current selection of
/// the next hop (or a direct path to the destination). This is the SPVP
/// selection rule — shared by the stability predicate and the event-driven
/// simulator in src/sim.
std::optional<Path> best_consistent_choice(const SppInstance& instance,
                                           const std::string& node,
                                           const Assignment& chosen);

/// True when `assignment` is stable: every node's entry equals its best
/// consistent permitted path given the others' choices (and nodes without
/// an entry have no consistent permitted path at all).
bool is_stable_assignment(const SppInstance& instance,
                          const Assignment& assignment);

/// Exhaustively enumerates all stable assignments of `instance`. A stable
/// assignment picks, for every node, the highest-ranked permitted path
/// consistent with the neighbours' choices (or no path when none is
/// available). Exponential in the instance size; intended for gadgets.
/// Throws fsr::InvalidArgument when the search space exceeds `max_states`.
std::vector<Assignment> enumerate_stable_assignments(
    const SppInstance& instance, std::uint64_t max_states = 1u << 22);

/// Why a budgeted brute-force scan ended: it covered the whole state space
/// (`completed`), ran out of its state budget (`state_budget`), or found
/// `max_solutions` stable assignments first (`solution_budget`).
enum class EnumerationStop { completed, state_budget, solution_budget };

const char* to_string(EnumerationStop stop) noexcept;

/// Outcome of a budgeted brute-force scan (enumerate_stable_assignments
/// without the up-front throw): `complete` is true when the whole state
/// space was covered, so `assignments` is the exact answer; otherwise
/// `stopped_by` names the exhausted budget and `assignments` is only a
/// partial floor.
struct BudgetedEnumeration {
  std::vector<Assignment> assignments;
  bool complete = false;
  std::uint64_t states_scanned = 0;
  EnumerationStop stopped_by = EnumerationStop::state_budget;
};

/// Scans up to `max_states` candidate states for stable assignments,
/// stopping early once `max_solutions` have been found. Never throws on
/// large instances — the budget simply runs out (`complete` false). The
/// ground-truth engine's enumerate backend.
BudgetedEnumeration enumerate_stable_assignments_budgeted(
    const SppInstance& instance, std::uint64_t max_states,
    std::size_t max_solutions = static_cast<std::size_t>(-1));

}  // namespace fsr::spp

#endif  // FSR_SPP_SPP_H
