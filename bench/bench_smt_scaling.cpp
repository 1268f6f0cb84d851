// Solver ablation — google-benchmark microbenchmarks backing the paper's
// "<100 ms" analysis claims and our design choices:
//
//   * satisfiable chains (the shape ranking constraints take),
//   * unsatisfiable rings (worst-case negative-cycle detection),
//   * SPP-derived systems (the Figure-3 instance and the Rocketfuel-like
//     extraction),
//   * unsat-core minimisation on vs off (deletion pass cost).
#include <benchmark/benchmark.h>

#include "fsr/safety_analyzer.h"
#include "smt/context.h"
#include "smt/yices_frontend.h"
#include "spp/gadgets.h"
#include "spp/translate.h"
#include "topology/rocketfuel.h"

namespace {

void build_chain(fsr::smt::Context& ctx, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    ctx.declare_variable("v" + std::to_string(i));
  }
  for (std::int64_t i = 0; i + 1 < n; ++i) {
    ctx.assert_less("v" + std::to_string(i), "v" + std::to_string(i + 1));
  }
}

void bm_satisfiable_chain(benchmark::State& state) {
  for (auto _ : state) {
    fsr::smt::Context ctx;
    build_chain(ctx, state.range(0));
    benchmark::DoNotOptimize(ctx.check().status);
  }
}
BENCHMARK(bm_satisfiable_chain)->Arg(64)->Arg(256)->Arg(1024);

void bm_unsat_ring(benchmark::State& state) {
  for (auto _ : state) {
    fsr::smt::Context ctx;
    const std::int64_t n = state.range(0);
    build_chain(ctx, n);
    ctx.assert_less("v" + std::to_string(n - 1), "v0");  // close the ring
    benchmark::DoNotOptimize(ctx.check().status);
  }
}
BENCHMARK(bm_unsat_ring)->Arg(64)->Arg(256)->Arg(1024);

void bm_figure3_analysis(benchmark::State& state) {
  const auto algebra =
      fsr::spp::algebra_from_spp(fsr::spp::ibgp_figure3_gadget());
  const fsr::SafetyAnalyzer analyzer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyzer
            .check_monotonicity(*algebra, fsr::MonotonicityMode::strict)
            .holds);
  }
}
BENCHMARK(bm_figure3_analysis);

void bm_rocketfuel_analysis(benchmark::State& state) {
  fsr::topology::RocketfuelParams params;
  params.embed_gadget = true;
  const auto experiment = fsr::topology::build_rocketfuel_ibgp(params);
  const auto algebra = fsr::spp::algebra_from_spp(experiment.instance);
  const fsr::SafetyAnalyzer analyzer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyzer
            .check_monotonicity(*algebra, fsr::MonotonicityMode::strict)
            .holds);
  }
}
BENCHMARK(bm_rocketfuel_analysis);

void bm_yices_text_roundtrip(benchmark::State& state) {
  // The paper artifact's cost: render the Section IV-B script, then parse
  // and solve it through the Yices-style frontend. bm_figure3_analysis runs
  // the analyzer's own typed-term check on the same instance.
  const fsr::algebra::SymbolicSpec spec =
      fsr::spp::algebra_from_spp(fsr::spp::ibgp_figure3_gadget())->symbolic();
  for (auto _ : state) {
    const std::string script = fsr::SafetyAnalyzer::emit_yices_script(
        spec, fsr::MonotonicityMode::strict);
    fsr::smt::YicesFrontend frontend;
    benchmark::DoNotOptimize(
        frontend.run_script(script).single_check().status);
  }
}
BENCHMARK(bm_yices_text_roundtrip);

}  // namespace

BENCHMARK_MAIN();
