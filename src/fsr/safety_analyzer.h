// Automated safety analysis (paper Section IV).
//
// Given a routing algebra, the analyzer encodes its symbolic constraints
// as integer comparisons (the three-step recipe of Section IV-B), asserts
// them as typed terms into the solver (smt::Context, which stands in for
// Yices), and maps the outcome back to the policy level:
//
//   * sat   -> the algebra is strictly monotone; by Sobrinho's theorem the
//              path-vector protocol implementing it converges -> SAFE,
//              with the solver's model as a witness ranking;
//   * unsat -> not provably safe; the minimal unsatisfiable core is
//              translated back into the offending policy constraints.
//
// Lexical products follow the composition rule of Section IV-B: the
// product is safe if some factor is strictly monotone and every factor
// before it is (at least) monotone.
//
// The Yices-style script of the paper's Figure 1 is a readable artifact of
// the same encoding, rendered only on demand by emit_yices_script; the
// test suite runs it through the Yices-style frontend in src/smt to prove
// it means what the analyzer solved.
//
// Strict monotonicity is sufficient, not necessary: a "not provably safe"
// verdict may be a false positive (the paper's own caveat), which is why
// the verdict enum has no "divergent" member.
#ifndef FSR_FSR_SAFETY_ANALYZER_H
#define FSR_FSR_SAFETY_ANALYZER_H

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "smt/context.h"

namespace fsr {

class IncrementalSafetySession;

enum class SafetyVerdict { safe, not_provably_safe };

enum class MonotonicityMode { strict, plain };

/// Where a generated constraint came from, so unsat cores read as policy
/// diagnostics rather than solver internals.
struct ConstraintProvenance {
  enum class Kind { preference, monotonicity };
  Kind kind = Kind::preference;
  std::string description;  // e.g. "rank at a: a-b-e-0 < a-d-0"
  std::string constraint;   // e.g. "(< s3 s4)"
};

/// Result of one monotonicity check of one (leaf) algebra.
struct MonotonicityReport {
  std::string algebra_name;
  MonotonicityMode mode = MonotonicityMode::strict;
  bool holds = false;
  smt::Model model;  // witness ranking when holds
  std::vector<ConstraintProvenance> unsat_core;  // when !holds
  std::size_t preference_constraint_count = 0;
  std::size_t monotonicity_constraint_count = 0;
  double solve_time_ms = 0.0;
};

/// Result of a full safety analysis (possibly across product factors).
struct SafetyReport {
  SafetyVerdict verdict = SafetyVerdict::not_provably_safe;
  std::string narrative;  // one-paragraph human explanation
  /// Per-factor checks in evaluation order. For a leaf algebra this holds
  /// the strict check, preceded by the plain check when the strict one
  /// fails (mirroring the paper's guideline-A walkthrough).
  std::vector<MonotonicityReport> checks;

  /// Total solver time across all checks.
  double total_solve_time_ms() const;
  /// The unsat core of the final failing check, if any.
  const std::vector<ConstraintProvenance>* failing_core() const;
};

/// Thread-compatibility: a SafetyAnalyzer holds no state — analyze and
/// check_monotonicity construct their smt::Context (a single-thread
/// object) per call, and RoutingAlgebra implementations are immutable — so
/// one analyzer instance MAY be shared by concurrent callers.
class SafetyAnalyzer {
 public:
  /// Full analysis with lexical-product decomposition.
  SafetyReport analyze(const algebra::RoutingAlgebra& algebra) const;

  /// Single monotonicity check of one (leaf) algebra. analyze() builds each
  /// analysed algebra's spec once for both of its checks.
  MonotonicityReport check_monotonicity(const algebra::RoutingAlgebra& algebra,
                                        MonotonicityMode mode) const;

  /// Renders the Section IV-B encoding of `spec` as a Yices-style script:
  /// the paper artifact, for people to read, edit and re-run through the
  /// Yices-style frontend in src/smt. No analysis path renders it.
  static std::string emit_yices_script(const algebra::SymbolicSpec& spec,
                                       MonotonicityMode mode);

  /// Incremental entry point: encodes `algebra`'s symbolic spec once into a
  /// session whose solver state is shared across many near-identical
  /// re-checks — the repair engine's workhorse (see
  /// fsr/incremental_session.h, which callers must include for the complete
  /// type). `incremental = false` selects the from-scratch ablation path.
  static IncrementalSafetySession open_incremental(
      const algebra::RoutingAlgebra& algebra, MonotonicityMode mode,
      bool incremental = true);
};

}  // namespace fsr

#endif  // FSR_FSR_SAFETY_ANALYZER_H
