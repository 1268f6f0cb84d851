#include "repair/repair_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

#include "fsr/incremental_session.h"
#include "groundtruth/stable_sat.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spp/path_index.h"
#include "spp/translate.h"
#include "util/error.h"
#include "util/strings.h"

namespace fsr::repair {
namespace {

int kind_weight(EditKind kind) {
  switch (kind) {
    case EditKind::demote_path:
      return 1;
    case EditKind::drop_path:
      return 2;
    case EditKind::relax_preference:
      return 3;
  }
  return 3;
}

int ground_truth_rank(GroundTruth truth) {
  switch (truth) {
    case GroundTruth::verified:
      return 0;
    case GroundTruth::not_applicable:
      return 1;
    case GroundTruth::failed:
      return 2;
  }
  return 2;
}

std::string edits_key(const std::vector<PolicyEdit>& edits) {
  std::string key;
  for (const PolicyEdit& edit : edits) {
    if (!key.empty()) key += " + ";
    key += edit.describe();
  }
  return key;
}

struct SearchState {
  std::vector<PolicyEdit> edits;  // sorted by describe()
  std::string key;
};

struct Evaluation {
  bool applicable = false;
  bool holds = false;
  std::vector<std::size_t> core;
  /// Follow-up edits derived from core members that were per-check extras
  /// (constraints the candidate itself introduced, e.g. a merged ranking
  /// pair after a demote) — the search must branch on these too.
  std::vector<PolicyEdit> extra_core_edits;
  /// Set on a solver-safe candidate made only of drop/demote edits: the
  /// stable-assignment oracle can validate it.
  bool oracle_applies = false;
  /// The candidate's edited rankings as per-node deltas against the base —
  /// the incremental oracle's query shape (set alongside oracle_applies).
  std::vector<groundtruth::RankingDelta> deltas;
};

/// One repair search: owns all per-run bookkeeping plus the shared search
/// session — built lazily, since a borrowed gate (RepairSessions) answers
/// the initial check and an already-safe run then needs no session at all.
///
/// Candidate evaluation never re-translates the instance: it reads the
/// instance's spp::PathIndex, derives a candidate's constraint set straight
/// from its edited rankings (mirroring spp::algebra_from_spp: adjacent
/// ranking pairs + permitted-suffix extensions), and diffs it against the
/// base encoding over path-id pairs. That keeps the per-candidate cost
/// proportional to the instance, with the solver work delegated to the
/// shared incremental session.
class Search {
 public:
  using NodeId = spp::PathIndex::NodeId;
  using PathId = spp::PathIndex::PathId;

  Search(const spp::SppInstance& instance, const RepairOptions& options,
         const RepairSessions& sessions)
      : instance_(instance),
        options_(options),
        spec_(sessions.spec != nullptr
                  ? *sessions.spec
                  : own_spec_.emplace(
                        spp::algebra_from_spp(instance)->symbolic())),
        gate_(sessions.strict_gate),
        index_(instance) {
    // Snapshot the borrowed gate's lifetime counter NOW so every gate
    // query this run issues — however many future search shapes need — is
    // counted as a delta, exactly like the oracle stats below. A
    // hand-maintained "+1 per call site" drifts the moment a second call
    // site appears; a baseline cannot.
    if (gate_ != nullptr) gate_checks_base_ = gate_->check_count();
    // A borrowed oracle only applies to the configuration that would build
    // one (the persistent sat-search session); any other oracle choice
    // ignores the loan so the ablation paths stay exactly what they claim.
    if (options.ground_truth == groundtruth::Mode::sat_search &&
        options.use_incremental_oracle && sessions.oracle != nullptr) {
      oracle_session_ = sessions.oracle;
      oracle_stats_base_ = sessions.oracle->stats();
    }
    signatures_.reserve(index_.path_count());
    for (PathId pid = 0; pid < index_.path_count(); ++pid) {
      signatures_.push_back(spp::spp_signature(index_, pid));
      path_of_signature_.emplace(signatures_.back(), pid);
    }
    const IncrementalSafetySession& info = info_session();
    for (std::size_t i = 0; i < info.constraint_count(); ++i) {
      const encoding::RelationShape& shape = info.shape(i);
      const auto lhs = path_of_signature_.find(shape.lhs);
      const auto rhs = path_of_signature_.find(shape.rhs);
      if (lhs == path_of_signature_.end() || rhs == path_of_signature_.end()) {
        continue;
      }
      base_pair_to_index_.emplace(
          std::make_pair(lhs->second, rhs->second), i);
    }
  }

  RepairReport run() {
    RepairReport report;
    report.instance = instance_.name();
    report.ground_truth_mode = options_.ground_truth;

    IncrementalSafetySession::Result initial;
    if (gate_ != nullptr) {
      // The borrowed gate only ever answers this retraction-free query, so
      // its recorded engine verdict/core is byte-identical to what a fresh
      // session's first check would report — and it still counts as one
      // solver check, exactly as the self-built initial check did.
      initial = gate_->check({});
    } else {
      initial = search_session().check({});
    }
    if (initial.holds) {
      report.already_safe = true;
      finish(report);
      return report;
    }
    note_core(initial.core);
    for (const std::size_t index : initial.core) {
      report.initial_core.push_back(info_session().provenance(index));
    }

    std::set<std::string> visited;
    std::vector<SearchState> frontier =
        expand({}, edit_pool(initial.core, {}), visited);
    for (std::size_t depth = 1;
         depth <= options_.max_edits && !frontier.empty(); ++depth) {
      obs::Span depth_span("repair.depth");
      depth_span.arg("depth", depth);
      depth_span.arg("frontier", frontier.size());
      // Beam timelines: frontier size per depth plus the cumulative prune
      // count, so Perfetto shows the search narrowing under repair.run.
      obs::trace_counter("repair.beam_frontier",
                         static_cast<std::uint64_t>(frontier.size()));
      const std::size_t candidates_floor = report.candidates_checked;
      const std::size_t pruned_floor = report.beam_pruned;
      premark(frontier);
      std::vector<SearchState> next;
      for (const SearchState& state : frontier) {
        if (solver_checks() >= options_.max_checks) {
          report.budget_exhausted = true;
          break;
        }
        Evaluation eval = evaluate(state);
        if (!eval.applicable) continue;
        ++report.candidates_checked;
        if (eval.holds) {
          report.repairs.push_back(make_candidate(state, eval));
        } else if (depth < options_.max_edits) {
          for (SearchState& successor :
               expand(state.edits,
                      edit_pool(eval.core, eval.extra_core_edits), visited)) {
            next.push_back(std::move(successor));
          }
        }
      }
      depth_span.arg("validated", report.candidates_checked - candidates_floor);
      depth_span.arg("generated", next.size());
      depth_span.arg("repairs", report.repairs.size());
      // All states of the minimal successful depth were evaluated before
      // stopping, so `repairs` holds every minimal fix the budget allowed.
      if (!report.repairs.empty() || report.budget_exhausted) break;
      if (options_.beam_width > 0 && next.size() > options_.beam_width) {
        next = prune_frontier(std::move(next), report);
      }
      depth_span.arg("pruned", report.beam_pruned - pruned_floor);
      obs::trace_counter("repair.beam_pruned",
                         static_cast<std::uint64_t>(report.beam_pruned));
      frontier = std::move(next);
    }

    rank(report.repairs);
    finish(report);
    return report;
  }

 private:
  static groundtruth::Options oracle_options(const RepairOptions& options) {
    groundtruth::Options oracle_options;
    oracle_options.max_states = options.ground_truth_max_states;
    oracle_options.max_conflicts = options.ground_truth_max_conflicts;
    oracle_options.max_solutions = options.ground_truth_max_solutions;
    return oracle_options;
  }

  static IncrementalSafetySession::Options session_options(
      const RepairOptions& options) {
    IncrementalSafetySession::Options session_options;
    session_options.incremental = options.use_incremental;
    // The search branches on holds/core only; witness models are dead
    // weight at hundreds of re-checks per repair.
    session_options.extract_models = false;
    return session_options;
  }

  /// The mutable search session, built on first use — an already-safe run
  /// answered by a borrowed gate never constructs one.
  IncrementalSafetySession& search_session() {
    if (!own_session_.has_value()) {
      own_session_.emplace(spec_, MonotonicityMode::strict,
                           session_options(options_));
    }
    return *own_session_;
  }

  /// Read-only encoding info (shapes, provenance, constraint count): the
  /// borrowed gate encodes the same spec deterministically, so preferring
  /// it avoids building the search session just to describe constraints.
  const IncrementalSafetySession& info_session() {
    return gate_ != nullptr ? *gate_ : search_session();
  }

  /// Total solver checks so far, gate queries included — the number the
  /// max_checks budget and the report count, exactly as when every check
  /// ran on one self-built session.
  std::uint64_t solver_checks() const noexcept {
    const std::uint64_t gate_checks =
        gate_ != nullptr ? gate_->check_count() - gate_checks_base_ : 0;
    return gate_checks +
           (own_session_.has_value() ? own_session_->check_count() : 0);
  }

  void finish(RepairReport& report) {
    report.solver_checks = static_cast<std::size_t>(solver_checks());
    report.cores_seen = cores_seen_.size();
    report.engine_rebuilds =
        own_session_.has_value()
            ? static_cast<std::size_t>(own_session_->engine_rebuilds())
            : 0;
    if (oracle_session_ != nullptr) {
      const groundtruth::StableSessionStats& stats = oracle_session_->stats();
      report.oracle_queries = stats.queries - oracle_stats_base_.queries;
      report.oracle_groups_encoded =
          stats.groups_encoded - oracle_stats_base_.groups_encoded;
      report.oracle_cache_hits =
          stats.group_cache_hits - oracle_stats_base_.group_cache_hits;
    }
    // wall_ms is set by RepairEngine::repair around the WHOLE Search
    // lifetime: the constructor does real work (spec translation, the path
    // index, session construction when nothing was lent), so timing
    // run() alone understated self-built runs relative to borrowed ones.
  }

  /// Beam pruning: keep the beam_width states whose edits were most often
  /// demanded by counterexample cores (summed per-edit core frequency),
  /// best-first; ties and evaluation order stay deterministic via the
  /// state key.
  std::vector<SearchState> prune_frontier(std::vector<SearchState> states,
                                          RepairReport& report) const {
    std::vector<std::size_t> score(states.size(), 0);
    for (std::size_t i = 0; i < states.size(); ++i) {
      for (const PolicyEdit& edit : states[i].edits) {
        const auto it = edit_frequency_.find(edit.describe());
        if (it != edit_frequency_.end()) score[i] += it->second;
      }
    }
    std::vector<std::size_t> order(states.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (score[a] != score[b]) return score[a] > score[b];
                return states[a].key < states[b].key;
              });
    order.resize(options_.beam_width);
    report.beam_pruned += states.size() - order.size();
    std::vector<SearchState> kept;
    kept.reserve(order.size());
    for (const std::size_t index : order) {
      kept.push_back(std::move(states[index]));
    }
    return kept;
  }

  void note_core(const std::vector<std::size_t>& core) {
    std::string key;
    for (const std::size_t index : core) key += std::to_string(index) + ",";
    cores_seen_.insert(std::move(key));
  }

  PathId path_of(const std::string& signature) const {
    const auto it = path_of_signature_.find(signature);
    if (it == path_of_signature_.end()) {
      throw InvalidArgument("repair: spec signature '" + signature +
                            "' has no SPP path");
    }
    return it->second;
  }

  /// An edit of kind `kind` to path `pid` at its source.
  PolicyEdit path_edit(EditKind kind, PathId pid) const {
    return PolicyEdit{kind, index_.name(index_.source(pid)), index_.path(pid),
                      {}};
  }

  /// Relaxes the constraint `lhs` < `rhs` to <=.
  PolicyEdit relax_edit(PathId lhs, PathId rhs) const {
    return PolicyEdit{EditKind::relax_preference, {}, index_.path(lhs),
                      index_.path(rhs)};
  }

  /// Candidate edits justified by core element `index`.
  std::vector<PolicyEdit> edits_for(std::size_t index) const {
    std::vector<PolicyEdit> out;
    const std::size_t preference_count = spec_.preferences.size();
    if (index < preference_count) {
      const auto& pref = spec_.preferences[index];
      const PathId preferred = path_of(pref.lhs);
      const PathId dispreferred = path_of(pref.rhs);
      out.push_back(path_edit(EditKind::demote_path, preferred));
      out.push_back(path_edit(EditKind::drop_path, preferred));
      out.push_back(path_edit(EditKind::drop_path, dispreferred));
      if (options_.allow_relax &&
          pref.rel == algebra::PrefRel::strictly_better) {
        out.push_back(relax_edit(preferred, dispreferred));
      }
    } else if (index < preference_count + spec_.extensions.size()) {
      const auto& ext = spec_.extensions[index - preference_count];
      const PathId extended = path_of(ext.to_sig);
      out.push_back(path_edit(EditKind::drop_path, extended));
      if (options_.allow_relax) {
        out.push_back(relax_edit(path_of(ext.from_sig), extended));
      }
    }
    return out;
  }

  /// Candidate edits justified by a counterexample: the base-core members'
  /// edits plus the edits already derived from in-core extras. Every
  /// occurrence feeds the core-frequency tally the beam pruning ranks by.
  std::vector<PolicyEdit> edit_pool(
      const std::vector<std::size_t>& core,
      const std::vector<PolicyEdit>& extra_edits) {
    std::vector<PolicyEdit> pool;
    for (const std::size_t index : core) {
      for (PolicyEdit& edit : edits_for(index)) pool.push_back(std::move(edit));
    }
    pool.insert(pool.end(), extra_edits.begin(), extra_edits.end());
    for (const PolicyEdit& edit : pool) ++edit_frequency_[edit.describe()];
    return pool;
  }

  /// Candidate edits for a constraint over two paths — the shape of a
  /// per-check extra in the core. Same-node pairs behave like ranking
  /// preferences; cross-node pairs like extension entries.
  std::vector<PolicyEdit> edits_for_pair(PathId lhs, PathId rhs,
                                         bool strict) const {
    std::vector<PolicyEdit> out;
    if (index_.source(lhs) == index_.source(rhs)) {
      out.push_back(path_edit(EditKind::demote_path, lhs));
      out.push_back(path_edit(EditKind::drop_path, lhs));
    }
    out.push_back(path_edit(EditKind::drop_path, rhs));
    if (strict && options_.allow_relax) out.push_back(relax_edit(lhs, rhs));
    return out;
  }

  std::vector<SearchState> expand(const std::vector<PolicyEdit>& prefix,
                                  const std::vector<PolicyEdit>& pool,
                                  std::set<std::string>& visited) const {
    // Descriptions are computed once per edit; all dedup/ordering below
    // works on the cached strings (describe() allocates).
    std::vector<std::string> prefix_descriptions;
    prefix_descriptions.reserve(prefix.size());
    for (const PolicyEdit& edit : prefix) {
      prefix_descriptions.push_back(edit.describe());
    }
    std::vector<SearchState> out;
    for (const PolicyEdit& edit : pool) {
      std::string description = edit.describe();
      if (std::find(prefix_descriptions.begin(), prefix_descriptions.end(),
                    description) != prefix_descriptions.end()) {
        continue;
      }
      std::vector<std::pair<std::string, const PolicyEdit*>> decorated;
      decorated.reserve(prefix.size() + 1);
      for (std::size_t i = 0; i < prefix.size(); ++i) {
        decorated.emplace_back(prefix_descriptions[i], &prefix[i]);
      }
      decorated.emplace_back(std::move(description), &edit);
      std::sort(decorated.begin(), decorated.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      SearchState state;
      state.edits.reserve(decorated.size());
      for (auto& [text, source] : decorated) {
        state.edits.push_back(*source);
        if (!state.key.empty()) state.key += " + ";
        state.key += text;
      }
      if (visited.insert(state.key).second) out.push_back(std::move(state));
    }
    std::sort(out.begin(), out.end(),
              [](const SearchState& a, const SearchState& b) {
                return a.key < b.key;
              });
    return out;
  }

  /// Moves every constraint some frontier edit could exclude into the
  /// session's variable set in one batch, so the shared engine base
  /// rebuilds at most once per search depth. An edit can only remove
  /// constraints that mention a signature it touches.
  void premark(const std::vector<SearchState>& frontier) {
    std::set<std::string> touched;
    for (const SearchState& state : frontier) {
      for (const PolicyEdit& edit : state.edits) {
        touched.insert(spp::spp_signature(edit.path));
        if (!edit.other.empty()) touched.insert(spp::spp_signature(edit.other));
      }
    }
    IncrementalSafetySession& session = search_session();
    std::vector<std::size_t> to_mark;
    for (std::size_t i = 0; i < session.constraint_count(); ++i) {
      if (session.is_variable(i)) continue;
      const encoding::RelationShape& shape = session.shape(i);
      if (touched.contains(shape.lhs) || touched.contains(shape.rhs)) {
        to_mark.push_back(i);
      }
    }
    session.make_variable(to_mark);
  }

  Evaluation evaluate(const SearchState& state) {
    Evaluation eval;
    std::vector<PolicyEdit> relax_edits;
    std::size_t spp_edit_count = 0;

    // Apply drop/demote edits to a path-id copy of the rankings.
    std::vector<std::vector<PathId>> rankings(index_.node_count());
    for (NodeId node = 0; node < index_.node_count(); ++node) {
      const auto base = index_.ranked(node);
      rankings[node].assign(base.begin(), base.end());
    }
    std::size_t remaining = index_.path_count();
    for (const PolicyEdit& edit : state.edits) {
      if (edit.kind == EditKind::relax_preference) {
        relax_edits.push_back(edit);
        continue;
      }
      ++spp_edit_count;
      const auto pid = index_.find(edit.path);
      const auto node = index_.node(edit.node);
      if (!pid.has_value() || !node.has_value()) return eval;
      std::vector<PathId>& ranked = rankings[*node];
      const auto it = std::find(ranked.begin(), ranked.end(), *pid);
      if (it == ranked.end()) return eval;  // already dropped by a sibling
      if (edit.kind == EditKind::drop_path) {
        ranked.erase(it);
        --remaining;
      } else {  // demote_path
        if (it + 1 == ranked.end()) return eval;  // already last
        std::rotate(it, it + 1, ranked.end());
      }
    }
    if (remaining == 0) return eval;  // the edits emptied the instance
    const bool pure_spp = relax_edits.empty();

    // The candidate's constraint set, derived exactly as the Section III-B
    // translation would: adjacent ranking pairs + permitted-suffix
    // extensions, as (lhs path, rhs path) id pairs.
    std::vector<std::pair<PathId, PathId>> pairs;
    for (const std::vector<PathId>& ranked : rankings) {
      for (std::size_t i = 0; i + 1 < ranked.size(); ++i) {
        pairs.emplace_back(ranked[i], ranked[i + 1]);
      }
      for (const PathId pid : ranked) {
        const PathId suffix = index_.suffix(pid);
        if (suffix == spp::PathIndex::k_none) continue;
        const auto& suffix_ranked = rankings[index_.source(suffix)];
        if (std::find(suffix_ranked.begin(), suffix_ranked.end(), suffix) !=
            suffix_ranked.end()) {
          pairs.emplace_back(suffix, pid);
        }
      }
    }
    std::vector<IncrementalSafetySession::Extra> extras;
    // The (path pair, strictness) behind each extra, so core members that
    // are extras can seed further edits.
    std::vector<std::pair<PathId, PathId>> extra_pairs;
    std::vector<char> extra_strict;
    for (const PolicyEdit& edit : relax_edits) {
      const auto lhs = index_.find(edit.path);
      const auto rhs = index_.find(edit.other);
      if (!lhs.has_value() || !rhs.has_value()) return eval;
      const std::pair<PathId, PathId> target{*lhs, *rhs};
      const auto it = std::find(pairs.begin(), pairs.end(), target);
      if (it == pairs.end()) return eval;  // constraint already gone
      pairs.erase(it);
      extras.push_back(IncrementalSafetySession::Extra{
          algebra::PrefRel::better_or_equal, signatures_[target.first],
          signatures_[target.second], "relaxed: " + edit.describe()});
      extra_pairs.push_back(target);
      extra_strict.push_back(0);
    }

    // Diff against the base encoding: matched base constraints are
    // retained (passed as assumptions when variable); unmatched candidate
    // pairs become per-check extras; unmatched base constraints are
    // excluded (premark made them variable).
    IncrementalSafetySession& session = search_session();
    consumed_.assign(session.constraint_count(), 0);
    std::vector<std::size_t> keep;
    for (const std::pair<PathId, PathId>& pair : pairs) {
      const auto it = base_pair_to_index_.find(pair);
      if (it != base_pair_to_index_.end() && consumed_[it->second] == 0) {
        consumed_[it->second] = 1;
        if (session.is_variable(it->second)) keep.push_back(it->second);
      } else {
        extras.push_back(IncrementalSafetySession::Extra{
            algebra::PrefRel::strictly_better, signatures_[pair.first],
            signatures_[pair.second],
            signatures_[pair.first] + " < " + signatures_[pair.second]});
        extra_pairs.push_back(pair);
        extra_strict.push_back(1);
      }
    }
    // premark covers every exclusion; keep the fallback for safety.
    std::vector<std::size_t> must_mark;
    for (std::size_t i = 0; i < consumed_.size(); ++i) {
      if (consumed_[i] == 0 && !session.is_variable(i)) must_mark.push_back(i);
    }
    if (!must_mark.empty()) session.make_variable(must_mark);

    std::sort(keep.begin(), keep.end());
    const auto result = session.check(keep, extras);
    eval.applicable = true;
    eval.holds = result.holds;
    eval.core = result.core;
    if (result.holds) {
      if (pure_spp && spp_edit_count > 0) {
        eval.oracle_applies = true;
        // The candidate's oracle query: one RankingDelta per node whose
        // ranking the edits changed (everything else rides on the base).
        for (NodeId node = 0; node < index_.node_count(); ++node) {
          if (std::ranges::equal(rankings[node], index_.ranked(node))) {
            continue;
          }
          groundtruth::RankingDelta delta;
          delta.node = index_.name(node);
          for (const PathId pid : rankings[node]) {
            delta.ranked.push_back(index_.path(pid));
          }
          eval.deltas.push_back(std::move(delta));
        }
      }
    } else {
      note_core(result.core);
      for (const std::size_t extra_index : result.extra_core) {
        const std::pair<PathId, PathId>& pair = extra_pairs[extra_index];
        for (PolicyEdit& edit :
             edits_for_pair(pair.first, pair.second,
                            extra_strict[extra_index] != 0)) {
          eval.extra_core_edits.push_back(std::move(edit));
        }
      }
    }
    return eval;
  }

  RepairCandidate make_candidate(const SearchState& state,
                                 const Evaluation& eval) {
    RepairCandidate candidate;
    candidate.edits = state.edits;
    candidate.solver_safe = true;
    if (!eval.oracle_applies) return candidate;  // not_applicable
    bool decided = false;
    bool has_stable = false;
    std::size_t count = 0;
    if (options_.ground_truth == groundtruth::Mode::sat_search &&
        options_.use_incremental_oracle) {
      // The run's ONE persistent oracle session: borrowed from the caller
      // when lent (warm across requests), else lazily built (already-safe
      // instances never pay for it), then shared by every candidate — each
      // validation costs the candidate's CNF delta, not a re-encode.
      if (oracle_session_ == nullptr) {
        own_oracle_.emplace(instance_);
        oracle_session_ = &*own_oracle_;
      }
      const groundtruth::StableSearchResult truth = oracle_session_->analyze(
          eval.deltas, options_.ground_truth_max_solutions,
          options_.ground_truth_max_conflicts);
      decided = truth.decided;
      has_stable = truth.has_stable;
      count = truth.count;
      candidate.oracle_budget = truth.budget_stop;
    } else {
      if (oracle_ == nullptr) {
        oracle_ = groundtruth::make_engine(options_.ground_truth,
                                           oracle_options(options_));
      }
      // evaluate() already rejected every edit set apply_edits refuses.
      const groundtruth::Result truth =
          oracle_->analyze(*apply_edits(instance_, state.edits));
      decided = truth.decided;
      has_stable = truth.has_stable;
      count = truth.count;
      candidate.oracle_budget = truth.budget_stop;
    }
    // An undecided oracle (its budget ran out; see candidate.oracle_budget:
    // states for enumerate, conflicts for sat-search) leaves the solver
    // verdict standing unverified.
    if (!decided) return candidate;
    candidate.stable_assignments = count;
    candidate.ground_truth =
        has_stable ? GroundTruth::verified : GroundTruth::failed;
    return candidate;
  }

  static void rank(std::vector<RepairCandidate>& repairs) {
    std::sort(repairs.begin(), repairs.end(),
              [](const RepairCandidate& a, const RepairCandidate& b) {
                if (a.edits.size() != b.edits.size()) {
                  return a.edits.size() < b.edits.size();
                }
                const int truth_a = ground_truth_rank(a.ground_truth);
                const int truth_b = ground_truth_rank(b.ground_truth);
                if (truth_a != truth_b) return truth_a < truth_b;
                int weight_a = 0;
                int weight_b = 0;
                for (const PolicyEdit& e : a.edits) {
                  weight_a += kind_weight(e.kind);
                }
                for (const PolicyEdit& e : b.edits) {
                  weight_b += kind_weight(e.kind);
                }
                if (weight_a != weight_b) return weight_a < weight_b;
                return edits_key(a.edits) < edits_key(b.edits);
              });
  }

  const spp::SppInstance& instance_;
  const RepairOptions& options_;
  // The instance's translated spec: lent through RepairSessions, else
  // translated here (own_spec_ is declared first so it is built first).
  std::optional<algebra::SymbolicSpec> own_spec_;
  const algebra::SymbolicSpec& spec_;
  // Borrowed read-only gate session (see RepairSessions); answers the
  // initial check so the mutable search session below can stay unbuilt
  // until a candidate actually needs a re-check.
  IncrementalSafetySession* gate_ = nullptr;
  std::optional<IncrementalSafetySession> own_session_;
  std::uint64_t gate_checks_base_ = 0;  // gate check_count() at borrow time
  // Exactly one oracle path materialises at the first solver-safe
  // candidate: the persistent incremental session (default sat-search;
  // borrowed from RepairSessions when lent, else built lazily) or the
  // per-candidate engine (enumerate / the from-scratch ablation).
  groundtruth::StableSatSession* oracle_session_ = nullptr;
  std::optional<groundtruth::StableSatSession> own_oracle_;
  // Stats snapshot at borrow time, so report effort fields are per-run
  // deltas even on a session warmed by earlier requests.
  groundtruth::StableSessionStats oracle_stats_base_{};
  std::unique_ptr<groundtruth::GroundTruthEngine> oracle_;
  std::map<std::string, std::size_t> edit_frequency_;  // beam scoring
  // The instance's path ids, their spec signatures, and the base
  // constraints evaluate() diffs against (see class comment).
  const spp::PathIndex index_;
  std::vector<std::string> signatures_;  // by path id
  std::map<std::string, PathId> path_of_signature_;
  std::map<std::pair<PathId, PathId>, std::size_t> base_pair_to_index_;
  std::vector<char> consumed_;  // scratch buffer for the per-candidate diff
  std::set<std::string> cores_seen_;
};

std::string quoted(const std::string& text) { return util::json_quoted(text); }

}  // namespace

const char* to_string(GroundTruth truth) noexcept {
  switch (truth) {
    case GroundTruth::verified:
      return "verified";
    case GroundTruth::failed:
      return "failed";
    case GroundTruth::not_applicable:
      return "not_applicable";
  }
  return "not_applicable";
}

std::string RepairCandidate::describe() const { return edits_key(edits); }

RepairReport RepairEngine::repair(const spp::SppInstance& instance,
                                  const RepairSessions& sessions) const {
  obs::Span span("repair.run");
  span.arg("instance", instance.name());
  const auto start = std::chrono::steady_clock::now();
  RepairReport report;
  {
    Search search(instance, options_, sessions);
    report = search.run();
  }
  // Time the whole Search lifetime so borrowed-session runs (construction
  // nearly free) and self-built runs (construction pays translation +
  // session setup) report comparable per-run wall clocks.
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  struct RepairMetrics {
    obs::Counter& runs = obs::registry().counter("repair.runs");
    obs::Counter& candidates =
        obs::registry().counter("repair.candidates_checked");
    obs::Counter& checks = obs::registry().counter("repair.solver_checks");
    obs::Counter& cores = obs::registry().counter("repair.cores_seen");
    obs::Counter& pruned = obs::registry().counter("repair.beam_pruned");
    obs::Counter& oracle_queries =
        obs::registry().counter("repair.oracle_queries");
    obs::Counter& repaired = obs::registry().counter("repair.repaired");
  };
  static RepairMetrics metrics;
  metrics.runs.add(1);
  metrics.candidates.add(report.candidates_checked);
  metrics.checks.add(report.solver_checks);
  metrics.cores.add(report.cores_seen);
  metrics.pruned.add(report.beam_pruned);
  metrics.oracle_queries.add(report.oracle_queries);
  if (report.repaired()) metrics.repaired.add(1);

  span.arg("solver_checks", report.solver_checks);
  span.arg("candidates_checked", report.candidates_checked);
  span.arg("repaired", report.repaired());
  return report;
}

RepairSummary summarize(const RepairReport& report) {
  RepairSummary summary;
  summary.attempted = true;
  summary.ground_truth_mode = groundtruth::to_string(report.ground_truth_mode);
  summary.candidates_checked = report.candidates_checked;
  summary.solver_checks = report.solver_checks;
  if (const RepairCandidate* best = report.best()) {
    summary.solver_repaired = best->solver_safe;
    summary.verified = best->ground_truth == GroundTruth::verified;
    summary.oracle_budget = groundtruth::to_string(best->oracle_budget);
    summary.edit_count = best->edits.size();
    for (const PolicyEdit& edit : best->edits) {
      summary.edits.push_back(edit.describe());
    }
  }
  return summary;
}

std::string to_json(const RepairReport& report) {
  std::string out = "{\n";
  out += "  \"instance\": " + quoted(report.instance) + ",\n";
  out += "  \"ground_truth_mode\": " +
         quoted(groundtruth::to_string(report.ground_truth_mode)) + ",\n";
  out += "  \"already_safe\": ";
  out += report.already_safe ? "true" : "false";
  out += ",\n  \"initial_core\": [";
  for (std::size_t i = 0; i < report.initial_core.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(report.initial_core[i].description);
  }
  out += "],\n  \"repaired\": ";
  out += report.repaired() ? "true" : "false";
  out += ",\n  \"candidates_checked\": " +
         std::to_string(report.candidates_checked) +
         ", \"solver_checks\": " + std::to_string(report.solver_checks) +
         ", \"cores_seen\": " + std::to_string(report.cores_seen) +
         ", \"beam_pruned\": " + std::to_string(report.beam_pruned) +
         ", \"budget_exhausted\": ";
  out += report.budget_exhausted ? "true" : "false";
  out += ",\n  \"repairs\": [\n";
  for (std::size_t i = 0; i < report.repairs.size(); ++i) {
    const RepairCandidate& candidate = report.repairs[i];
    out += "    {\"edits\": [";
    for (std::size_t j = 0; j < candidate.edits.size(); ++j) {
      if (j > 0) out += ", ";
      out += quoted(candidate.edits[j].describe());
    }
    out += "], \"ground_truth\": " +
           quoted(to_string(candidate.ground_truth)) +
           ", \"stable_assignments\": " +
           std::to_string(candidate.stable_assignments) +
           ", \"oracle_budget\": " +
           quoted(groundtruth::to_string(candidate.oracle_budget)) + "}";
    out += i + 1 < report.repairs.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string render_text(const RepairReport& report) {
  char buf[256];
  std::string out = "==== repair report: " + report.instance + " ====\n";
  if (report.already_safe) {
    out += "already provably safe; nothing to repair\n";
    return out;
  }
  std::snprintf(buf, sizeof(buf), "minimal unsat core (%zu constraints):\n",
                report.initial_core.size());
  out += buf;
  for (const ConstraintProvenance& prov : report.initial_core) {
    out += "  - " + prov.description + "\n";
  }
  std::snprintf(buf, sizeof(buf),
                "search: %zu candidates, %zu solver checks, %zu cores, "
                "%zu engine rebuilds, %zu beam-pruned, %.2f ms, %s oracle%s\n",
                report.candidates_checked, report.solver_checks,
                report.cores_seen, report.engine_rebuilds, report.beam_pruned,
                report.wall_ms,
                groundtruth::to_string(report.ground_truth_mode),
                report.budget_exhausted ? " (budget exhausted)" : "");
  out += buf;
  if (report.oracle_queries > 0) {
    std::snprintf(buf, sizeof(buf),
                  "oracle session: %zu queries, %zu ranking groups encoded, "
                  "%zu cache hits\n",
                  report.oracle_queries, report.oracle_groups_encoded,
                  report.oracle_cache_hits);
    out += buf;
  }
  if (!report.repaired()) {
    out += "no repair found within the edit budget\n";
    return out;
  }
  std::snprintf(buf, sizeof(buf), "repaired: %zu minimal fix(es) of size %zu\n",
                report.repairs.size(), report.repairs.front().edits.size());
  out += buf;
  for (std::size_t i = 0; i < report.repairs.size(); ++i) {
    const RepairCandidate& candidate = report.repairs[i];
    out += "  " + std::to_string(i + 1) + ". " + candidate.describe();
    out += "  [" + std::string(to_string(candidate.ground_truth));
    if (candidate.ground_truth != GroundTruth::not_applicable) {
      std::snprintf(buf, sizeof(buf), ", %zu stable assignment(s)",
                    candidate.stable_assignments);
      out += buf;
    }
    out += "]\n";
  }
  return out;
}

}  // namespace fsr::repair
