// Section IV-C — the three worked solver examples, as the paper presents
// them: each prints the Yices-style script the analyzer emits and runs that
// script through the textual frontend (smt::YicesFrontend), so the printed
// answer is what the script itself means:
//
//   1. shortest hop-count          -> sat
//   2. Gao-Rexford guideline A:
//        strict monotonicity       -> unsat (core: a self-loop entry)
//        plain monotonicity        -> sat with C=1, P=2, R=2
//   3. the Figure-3 iBGP instance  -> 18 constraints, unsat, minimal core
//      of 6 constraints touching only the route reflectors a, b, c
#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "algebra/additive_algebra.h"
#include "algebra/standard_policies.h"
#include "bench_util.h"
#include "fsr/constraint_encoder.h"
#include "fsr/safety_analyzer.h"
#include "smt/yices_frontend.h"
#include "spp/gadgets.h"
#include "spp/translate.h"
#include "util/strings.h"

namespace {

using fsr::MonotonicityMode;

void show_check(const fsr::algebra::RoutingAlgebra& algebra,
                MonotonicityMode mode) {
  const fsr::algebra::SymbolicSpec spec = algebra.symbolic();
  const std::string script =
      fsr::SafetyAnalyzer::emit_yices_script(spec, mode);
  std::printf("-- emitted script --\n%s", script.c_str());

  const auto start = std::chrono::steady_clock::now();
  fsr::smt::YicesFrontend frontend;
  const fsr::smt::CheckOutcome outcome =
      frontend.run_script(script).single_check();
  const double solve_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();

  // The script speaks sanitized solver symbols; print original names.
  const fsr::encoding::SymbolTable symbols(spec.signatures);
  const bool holds = outcome.status == fsr::smt::Status::sat;
  std::printf("-- solver --\n%s", holds ? "sat\n" : "unsat\n");
  if (holds) {
    std::map<std::string, std::int64_t> model;
    for (const auto& [symbol, value] : outcome.model.values) {
      model[symbols.original(symbol)] = value;
    }
    for (const auto& [name, value] : model) {
      std::printf("(= %s %ld)\n", name.c_str(), static_cast<long>(value));
    }
  } else {
    const fsr::encoding::Encoding enc =
        fsr::encoding::encode(spec, mode, symbols);
    std::printf("unsat core (%zu constraints):\n", outcome.core_ids.size());
    for (const fsr::smt::AssertionId id : outcome.core_ids) {
      const fsr::ConstraintProvenance& prov =
          enc.provenance[static_cast<std::size_t>(id)];
      std::printf("  %s   [%s]\n", prov.constraint.c_str(),
                  prov.description.c_str());
    }
  }
  std::printf("solve time: %s ms\n",
              fsr::util::format_fixed(solve_ms, 3).c_str());
}

}  // namespace

int main() {
  using fsr::bench::print_banner;
  const fsr::SafetyAnalyzer analyzer;

  print_banner("Example 1: shortest hop-count (strict monotonicity)");
  show_check(*fsr::algebra::shortest_hop_count(), MonotonicityMode::strict);

  print_banner("Example 2a: Gao-Rexford guideline A (strict monotonicity)");
  const auto gr = fsr::algebra::gao_rexford_guideline_a();
  show_check(*gr, MonotonicityMode::strict);

  print_banner("Example 2b: Gao-Rexford guideline A (plain monotonicity)");
  show_check(*gr, MonotonicityMode::plain);

  print_banner("Example 3: Figure-3 iBGP instance (strict monotonicity)");
  const auto ibgp =
      fsr::spp::algebra_from_spp(fsr::spp::ibgp_figure3_gadget());
  const auto check =
      analyzer.check_monotonicity(*ibgp, MonotonicityMode::strict);
  std::printf("constraints: %zu rankings + %zu strict monotonicity = %zu\n",
              check.preference_constraint_count,
              check.monotonicity_constraint_count,
              check.preference_constraint_count +
                  check.monotonicity_constraint_count);
  show_check(*ibgp, MonotonicityMode::strict);

  print_banner("Example 3 (repaired): reflectors prefer their own clients");
  const auto fixed =
      fsr::spp::algebra_from_spp(fsr::spp::ibgp_figure3_fixed());
  const auto fixed_check =
      analyzer.check_monotonicity(*fixed, MonotonicityMode::strict);
  std::printf("verdict: %s\n", fixed_check.holds ? "sat (safe)" : "unsat");
  return 0;
}
