// Incremental safety sessions: one solver session, many re-checks.
//
// A session encodes a symbolic spec ONCE (Section IV-B, same encoding the
// SafetyAnalyzer emits) and then answers a stream of "what if" queries over
// that encoding: check the fixed constraints plus a chosen subset of the
// retractable ("variable") ones plus a handful of per-query extras. The
// underlying smt::Context keeps its incremental difference-engine state
// alive between queries, so each re-check costs only the delta instead of
// a full rebuild — the property the counterexample-guided repair loop
// (src/repair/) depends on to stay fast.
//
// Thread-compatibility: an IncrementalSafetySession owns a mutable
// smt::Context and must be confined to one thread at a time, exactly like
// the Context it wraps (see smt/context.h). Distinct sessions are fully
// independent — no shared static state — so the campaign runner's
// one-solver-session-per-worker invariant extends to repair unchanged.
#ifndef FSR_FSR_INCREMENTAL_SESSION_H
#define FSR_FSR_INCREMENTAL_SESSION_H

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "fsr/constraint_encoder.h"
#include "fsr/safety_analyzer.h"
#include "smt/context.h"

namespace fsr {

class IncrementalSafetySession {
 public:
  struct Options {
    /// When false, every check() solves from scratch via
    /// Context::check_subset — the ablation path bench_repair measures the
    /// incremental engine against.
    bool incremental = true;
    /// When false, sat results carry no witness model — the repair loop
    /// branches on the status alone, and skipping the model saves an
    /// O(signatures) map build per re-check (incremental path only).
    bool extract_models = true;
  };

  /// An extra constraint asserted for the duration of one check, phrased
  /// over ORIGINAL signature names (the session translates to solver
  /// symbols). Repair candidates use these for merged ranking pairs and
  /// relaxed preferences.
  struct Extra {
    algebra::PrefRel rel = algebra::PrefRel::strictly_better;
    std::string lhs;
    std::string rhs;
    std::string label;
  };

  struct Result {
    /// sat == the checked constraint set is strictly monotone (safe for
    /// the session's mode).
    bool holds = false;
    /// Indices (into the base encoding) of the minimal unsat core.
    std::vector<std::size_t> core;
    /// Indices (into this check's `extras` argument) that are also in the
    /// core — a counterexample can run through constraints the candidate
    /// itself introduced, and callers must be able to branch on those too.
    std::vector<std::size_t> extra_core;
    smt::Model model;  // witness when holds
  };

  IncrementalSafetySession(const algebra::SymbolicSpec& spec,
                           MonotonicityMode mode)
      : IncrementalSafetySession(spec, mode, Options()) {}
  IncrementalSafetySession(const algebra::SymbolicSpec& spec,
                           MonotonicityMode mode, Options options);

  IncrementalSafetySession(IncrementalSafetySession&&) = default;
  IncrementalSafetySession& operator=(IncrementalSafetySession&&) = default;

  std::size_t constraint_count() const noexcept {
    return encoding_.provenance.size();
  }
  const ConstraintProvenance& provenance(std::size_t index) const;
  /// Structural shape of constraint `index` (original signature names);
  /// repair maps these onto path ids to diff candidate configurations.
  const encoding::RelationShape& shape(std::size_t index) const;

  /// Moves base constraints into the variable (retractable) set: they stop
  /// being implicitly active and participate in a check only when listed in
  /// `keep`. Growing the variable set invalidates the shared engine base
  /// once, so callers batch their calls per search phase.
  void make_variable(const std::vector<std::size_t>& indices);
  bool is_variable(std::size_t index) const;

  /// Checks fixed constraints + (variable constraints listed in `keep`) +
  /// `extras`. Indices in `keep` must have been passed to make_variable.
  Result check(const std::vector<std::size_t>& keep,
               const std::vector<Extra>& extras = {});

  std::uint64_t check_count() const noexcept { return checks_; }
  std::uint64_t engine_rebuilds() const noexcept {
    return context_.incremental_rebuild_count();
  }
  const smt::Context& context() const noexcept { return context_; }

 private:
  Options options_;
  encoding::SymbolTable symbols_;
  encoding::Encoding encoding_;
  smt::Context context_;
  std::vector<smt::AssertionId> ids_;  // ids_[i] asserts encoding i
  std::vector<char> variable_;
  std::uint64_t checks_ = 0;
};

}  // namespace fsr

#endif  // FSR_FSR_INCREMENTAL_SESSION_H
