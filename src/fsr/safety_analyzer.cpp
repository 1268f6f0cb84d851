#include "fsr/safety_analyzer.h"

#include <chrono>

#include "fsr/constraint_encoder.h"
#include "fsr/incremental_session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace fsr {

using encoding::Encoding;
using encoding::SymbolTable;
using encoding::encode;
using encoding::render_script;

double SafetyReport::total_solve_time_ms() const {
  double total = 0.0;
  for (const MonotonicityReport& check : checks) total += check.solve_time_ms;
  return total;
}

const std::vector<ConstraintProvenance>* SafetyReport::failing_core() const {
  if (checks.empty() || checks.back().holds) return nullptr;
  return &checks.back().unsat_core;
}

namespace {

/// One monotonicity check of one (leaf) algebra's spec. analyze() shares a
/// spec and its symbol table between the strict and the plain check.
MonotonicityReport check_spec(const algebra::SymbolicSpec& spec,
                              const SymbolTable& symbols,
                              MonotonicityMode mode) {
  const Encoding enc = encode(spec, mode, symbols);

  MonotonicityReport report;
  report.algebra_name = spec.algebra_name;
  report.mode = mode;
  for (const auto& prov : enc.provenance) {
    if (prov.kind == ConstraintProvenance::Kind::preference) {
      ++report.preference_constraint_count;
    } else {
      ++report.monotonicity_constraint_count;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  smt::Context ctx;
  for (const std::string& symbol : symbols.symbols()) {
    ctx.declare_variable(symbol);
  }
  // Assert in encoding order on a fresh context, so AssertionId i is
  // provenance[i].
  for (const smt::Term& term : enc.terms) ctx.assert_term(term);
  const smt::CheckResult check = ctx.check();
  const auto stop = std::chrono::steady_clock::now();
  report.solve_time_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();

  report.holds = check.status == smt::Status::sat;
  if (report.holds) {
    for (const auto& [symbol, value] : check.model.values) {
      report.model.values[symbols.original(symbol)] = value;
    }
  } else {
    for (const smt::AssertionId id : check.unsat_core) {
      const auto index = static_cast<std::size_t>(id);
      report.unsat_core.push_back(enc.provenance[index]);
    }
  }
  return report;
}

}  // namespace

std::string SafetyAnalyzer::emit_yices_script(
    const algebra::SymbolicSpec& spec, MonotonicityMode mode) {
  const SymbolTable symbols(spec.signatures);
  const Encoding enc = encode(spec, mode, symbols);
  return render_script(spec, mode, symbols, enc);
}

IncrementalSafetySession SafetyAnalyzer::open_incremental(
    const algebra::RoutingAlgebra& algebra, MonotonicityMode mode,
    bool incremental) {
  IncrementalSafetySession::Options options;
  options.incremental = incremental;
  return IncrementalSafetySession(algebra.symbolic(), mode, options);
}

MonotonicityReport SafetyAnalyzer::check_monotonicity(
    const algebra::RoutingAlgebra& algebra, MonotonicityMode mode) const {
  const algebra::SymbolicSpec spec = algebra.symbolic();
  return check_spec(spec, SymbolTable(spec.signatures), mode);
}

SafetyReport SafetyAnalyzer::analyze(
    const algebra::RoutingAlgebra& algebra) const {
  static obs::Counter& analyze_counter =
      obs::registry().counter("safety.analyses");
  analyze_counter.add(1);
  obs::Span span("safety.analyze");
  span.arg("algebra", algebra.name());
  SafetyReport report;
  // A leaf algebra is checked as itself; a lexical product factor by
  // factor, in significance order. Safe as soon as one factor is strictly
  // monotone with all earlier factors monotone (Section IV-B).
  std::vector<const algebra::RoutingAlgebra*> factors =
      algebra.lexical_factors();
  const bool product = !factors.empty();
  if (!product) factors.push_back(&algebra);

  for (const algebra::RoutingAlgebra* factor : factors) {
    // One spec and symbol table per analysed algebra, shared by its strict
    // check and (on failure) the plain check that tells the user whether a
    // tie-breaking composition would rescue it.
    const algebra::SymbolicSpec spec = factor->symbolic();
    const SymbolTable symbols(spec.signatures);
    MonotonicityReport strict =
        check_spec(spec, symbols, MonotonicityMode::strict);
    const bool strict_holds = strict.holds;
    report.checks.push_back(std::move(strict));
    if (strict_holds) {
      report.verdict = SafetyVerdict::safe;
      report.narrative =
          product
              ? "Lexical product '" + algebra.name() + "': factor '" +
                    factor->name() +
                    "' is strictly monotonic and every earlier factor is "
                    "monotonic; the composition is strictly monotonic "
                    "(Section IV-B), hence safe."
              : "Algebra '" + algebra.name() +
                    "' is strictly monotonic; by Theorem 4.1 (Sobrinho) the "
                    "path-vector protocol converges.";
      return report;
    }
    MonotonicityReport plain =
        check_spec(spec, symbols, MonotonicityMode::plain);
    const bool plain_holds = plain.holds;
    report.checks.push_back(std::move(plain));
    if (!product) {
      report.narrative =
          plain_holds
              ? "Algebra '" + algebra.name() +
                    "' is monotonic but not strictly monotonic: not "
                    "provably safe on its own. Composing it (lexical "
                    "product) with a strictly monotonic tie-breaker such as "
                    "shortest hop-count yields a provably safe policy "
                    "(Section IV-B)."
              : "Algebra '" + algebra.name() +
                    "' is not even monotonic; the unsat core identifies the "
                    "conflicting policy constraints.";
      return report;
    }
    if (!plain_holds) {
      report.narrative = "Lexical product '" + algebra.name() +
                         "': factor '" + factor->name() +
                         "' is not monotonic; the composition is not "
                         "provably safe.";
      return report;
    }
  }
  report.narrative =
      "Lexical product '" + algebra.name() +
      "': every factor is monotonic but none is strictly monotonic; ties "
      "can persist, so the composition is not provably safe.";
  return report;
}

}  // namespace fsr
