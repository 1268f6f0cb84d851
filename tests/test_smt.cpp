// Unit tests for the SMT substrate: s-expressions, linearisation, the
// difference engine, the context (models + minimal unsat cores) and the
// Yices-style frontend, including the paper's Section IV-C examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <set>

#include "smt/context.h"
#include "smt/difference_engine.h"
#include "smt/linear.h"
#include "smt/sexpr.h"
#include "smt/term.h"
#include "smt/yices_frontend.h"
#include "util/error.h"

namespace fsr::smt {
namespace {

// ---------------------------------------------------------------- sexpr --

TEST(Sexpr, ParsesAtomsAndLists) {
  const Sexpr s = parse_sexpr("(assert (< C P))");
  ASSERT_TRUE(s.is_call("assert"));
  ASSERT_EQ(s.size(), 2u);
  const Sexpr& rel = s.items()[1];
  ASSERT_TRUE(rel.is_call("<"));
  EXPECT_EQ(rel.items()[1].spelling(), "C");
  EXPECT_EQ(rel.items()[2].spelling(), "P");
}

TEST(Sexpr, SkipsCommentsAndWhitespace) {
  const auto all = parse_sexprs(
      ";; preference relations\n"
      "(assert (< C R)) ; trailing\n"
      "\n  (check)\n");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_TRUE(all[0].is_call("assert"));
  EXPECT_TRUE(all[1].is_call("check"));
}

TEST(Sexpr, RoundTripsToString) {
  const std::string text = "(define-type Sig (subtype (n::nat) (> n 0)))";
  EXPECT_EQ(parse_sexpr(text).to_string(), text);
}

TEST(Sexpr, RejectsUnbalancedInput) {
  EXPECT_THROW(parse_sexprs("(assert (< C P)"), ParseError);
  EXPECT_THROW(parse_sexprs(")"), ParseError);
  EXPECT_THROW(parse_sexpr("(a) (b)"), ParseError);
}

TEST(Sexpr, NestedListDepth) {
  const Sexpr s = parse_sexpr("(a (b (c (d e))))");
  EXPECT_TRUE(s.is_call("a"));
  EXPECT_TRUE(s.items()[1].items()[1].items()[1].is_call("d"));
}

// --------------------------------------------------------------- linear --

TEST(Linear, FlattensNestedArithmetic) {
  // (x + 2) - (y - 3) = x - y + 5
  const Term t = Term::sub(Term::add(Term::variable("x"), Term::constant(2)),
                           Term::sub(Term::variable("y"), Term::constant(3)));
  const LinearForm f = linearize(t);
  EXPECT_EQ(f.constant, 5);
  EXPECT_EQ(f.coefficients.at("x"), 1);
  EXPECT_EQ(f.coefficients.at("y"), -1);
}

TEST(Linear, CancelsVariables) {
  const Term t = Term::sub(Term::variable("x"), Term::variable("x"));
  const LinearForm f = linearize(t);
  EXPECT_EQ(f.variable_count(), 0u);
  EXPECT_EQ(f.constant, 0);
}

TEST(Linear, ScalarMultiplication) {
  const Term t = Term::mul(Term::constant(3),
                           Term::add(Term::variable("x"), Term::constant(1)));
  const LinearForm f = linearize(t);
  EXPECT_EQ(f.coefficients.at("x"), 3);
  EXPECT_EQ(f.constant, 3);
}

TEST(Linear, RejectsNonLinearProducts) {
  const Term t = Term::mul(Term::variable("x"), Term::variable("y"));
  EXPECT_THROW(linearize(t), InvalidArgument);
}

TEST(Linear, RejectsRelations) {
  EXPECT_THROW(linearize(Term::lt(Term::variable("x"), Term::variable("y"))),
               InvalidArgument);
}

// ---------------------------------------------------- difference engine --

TEST(DifferenceEngine, SimpleSatisfiableChain) {
  // x1 - x0 <= -1, x2 - x1 <= -1 : satisfiable.
  std::vector<DiffConstraint> cs = {{1, 0, -1, 100}, {2, 1, -1, 101}};
  const DiffResult r = solve_difference_system(3, cs);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_LE(r.model[1] - r.model[0], -1);
  EXPECT_LE(r.model[2] - r.model[1], -1);
  EXPECT_EQ(r.model[0], 0);  // normalised
}

TEST(DifferenceEngine, DetectsNegativeCycle) {
  // x - y <= -1 and y - x <= 0 : cycle weight -1.
  std::vector<DiffConstraint> cs = {{1, 2, -1, 7}, {2, 1, 0, 8}};
  const DiffResult r = solve_difference_system(3, cs);
  ASSERT_FALSE(r.satisfiable);
  const std::set<std::int64_t> tags(r.conflict_tags.begin(),
                                    r.conflict_tags.end());
  EXPECT_EQ(tags, (std::set<std::int64_t>{7, 8}));
}

TEST(DifferenceEngine, SelfLoopContradiction) {
  // x - x <= -1 is unsatisfiable on its own.
  std::vector<DiffConstraint> cs = {{1, 1, -1, 42}};
  const DiffResult r = solve_difference_system(2, cs);
  ASSERT_FALSE(r.satisfiable);
  ASSERT_EQ(r.conflict_tags.size(), 1u);
  EXPECT_EQ(r.conflict_tags[0], 42);
}

TEST(DifferenceEngine, ZeroWeightCycleIsSatisfiable) {
  std::vector<DiffConstraint> cs = {{1, 2, 0, 1}, {2, 1, 0, 2}};
  const DiffResult r = solve_difference_system(3, cs);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_EQ(r.model[1], r.model[2]);
}

TEST(DifferenceEngine, RejectsBadVariableIndices) {
  std::vector<DiffConstraint> cs = {{5, 0, 0, 1}};
  EXPECT_THROW(solve_difference_system(2, cs), InvalidArgument);
}

TEST(DifferenceEngine, LongSatisfiableCycleWithSlack) {
  // Ring of n constraints x_{i+1} - x_i <= 1 plus x_0 - x_{n-1} <= -(n-1):
  // total cycle weight 0 -> satisfiable, forces a strict ladder.
  constexpr std::int32_t n = 50;
  std::vector<DiffConstraint> cs;
  for (std::int32_t i = 0; i + 1 < n; ++i) {
    cs.push_back({i + 1, i, 1, i});
  }
  cs.push_back({0, n - 1, -(n - 1), 99});
  const DiffResult r = solve_difference_system(n, cs);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_EQ(r.model[n - 1] - r.model[0], n - 1);
}

TEST(DifferenceEngine, LongUnsatisfiableCycleFindsCore) {
  // Ring where the loop-closing edge makes total weight -1.
  constexpr std::int32_t n = 40;
  std::vector<DiffConstraint> cs;
  for (std::int32_t i = 0; i + 1 < n; ++i) {
    cs.push_back({i + 1, i, 1, i});
  }
  cs.push_back({0, n - 1, -n, 99});
  const DiffResult r = solve_difference_system(n, cs);
  ASSERT_FALSE(r.satisfiable);
  EXPECT_FALSE(r.conflict_tags.empty());
  // The closing edge must participate in any conflict.
  EXPECT_NE(std::find(r.conflict_tags.begin(), r.conflict_tags.end(), 99),
            r.conflict_tags.end());
}

// -------------------------------------------------------------- context --

TEST(Context, SatWithModelRespectsConstraints) {
  Context ctx;
  ctx.declare_variable("a");
  ctx.declare_variable("b");
  ctx.declare_variable("c");
  ctx.assert_less("a", "b");
  ctx.assert_less("b", "c");
  const CheckResult r = ctx.check();
  ASSERT_EQ(r.status, Status::sat);
  EXPECT_LT(r.model.at("a"), r.model.at("b"));
  EXPECT_LT(r.model.at("b"), r.model.at("c"));
  EXPECT_GE(r.model.at("a"), 1);  // positivity (type constraint)
}

TEST(Context, UnsatCoreIsMinimal) {
  Context ctx;
  ctx.declare_variable("a");
  ctx.declare_variable("b");
  ctx.declare_variable("c");
  const auto i1 = ctx.assert_less("a", "b", "a<b");
  const auto i2 = ctx.assert_less("b", "a", "b<a");
  ctx.assert_less("a", "c", "a<c (irrelevant)");
  const CheckResult r = ctx.check();
  ASSERT_EQ(r.status, Status::unsat);
  const std::set<AssertionId> core(r.unsat_core.begin(), r.unsat_core.end());
  EXPECT_EQ(core, (std::set<AssertionId>{i1, i2}));
}

TEST(Context, SelfStrictLessIsItsOwnCore) {
  Context ctx;
  ctx.declare_variable("C");
  ctx.declare_variable("P");
  ctx.assert_less("C", "P", "C<P");
  const auto bad = ctx.assert_less("C", "C", "C<C");
  const CheckResult r = ctx.check();
  ASSERT_EQ(r.status, Status::unsat);
  ASSERT_EQ(r.unsat_core.size(), 1u);
  EXPECT_EQ(r.unsat_core[0], bad);
  EXPECT_EQ(ctx.describe(bad), "C<C");
}

TEST(Context, RetractRemovesConflict) {
  Context ctx;
  ctx.declare_variable("x");
  ctx.declare_variable("y");
  ctx.assert_less("x", "y");
  const auto bad = ctx.assert_less("y", "x");
  ASSERT_EQ(ctx.check().status, Status::unsat);
  ctx.retract(bad);
  EXPECT_EQ(ctx.check().status, Status::sat);
  EXPECT_EQ(ctx.active_assertion_count(), 1u);
}

TEST(Context, EqualityPropagates) {
  Context ctx;
  ctx.declare_variable("p");
  ctx.declare_variable("r");
  ctx.assert_equal("p", "r");
  const CheckResult r = ctx.check();
  ASSERT_EQ(r.status, Status::sat);
  EXPECT_EQ(r.model.at("p"), r.model.at("r"));
}

TEST(Context, EqualityChainWithStrictContradiction) {
  Context ctx;
  for (const char* v : {"a", "b", "c", "d"}) ctx.declare_variable(v);
  const auto e1 = ctx.assert_equal("a", "b", "a=b");
  const auto e2 = ctx.assert_equal("b", "c", "b=c");
  const auto l1 = ctx.assert_less("c", "d", "c<d");
  const auto l2 = ctx.assert_less("d", "a", "d<a");
  const CheckResult r = ctx.check();
  ASSERT_EQ(r.status, Status::unsat);
  const std::set<AssertionId> core(r.unsat_core.begin(), r.unsat_core.end());
  EXPECT_EQ(core, (std::set<AssertionId>{e1, e2, l1, l2}));
}

TEST(Context, BoundAgainstConstant) {
  Context ctx;
  ctx.declare_variable("x");
  ctx.assert_term(Term::lt(Term::variable("x"), Term::constant(2)), "x<2");
  const CheckResult r = ctx.check();
  ASSERT_EQ(r.status, Status::sat);
  // x must be exactly 1: positive and < 2 -- the paper's own x<2 example.
  EXPECT_EQ(r.model.at("x"), 1);
}

TEST(Context, ConstantBoundConflictsWithPositivity) {
  Context ctx;
  ctx.declare_variable("x");  // x >= 1 by type
  const auto id =
      ctx.assert_term(Term::lt(Term::variable("x"), Term::constant(1)), "x<1");
  const CheckResult r = ctx.check();
  ASSERT_EQ(r.status, Status::unsat);
  // The type constraint never shows up; the core is the user's assertion.
  ASSERT_EQ(r.unsat_core.size(), 1u);
  EXPECT_EQ(r.unsat_core[0], id);
}

TEST(Context, ForallValidSchemaIsNoOp) {
  Context ctx;
  ctx.declare_variable("y");
  ctx.assert_term(Term::forall_positive(
      "s", Term::lt(Term::variable("s"),
                    Term::add(Term::variable("s"), Term::constant(1)))));
  EXPECT_EQ(ctx.check().status, Status::sat);
}

TEST(Context, ForallInvalidSchemaIsUnsat) {
  Context ctx;
  // forall s: s < s  -- the classic non-monotone policy shape.
  const auto id = ctx.assert_term(Term::forall_positive(
      "s", Term::lt(Term::variable("s"), Term::variable("s"))));
  const CheckResult r = ctx.check();
  ASSERT_EQ(r.status, Status::unsat);
  ASSERT_EQ(r.unsat_core.size(), 1u);
  EXPECT_EQ(r.unsat_core[0], id);
}

TEST(Context, ForallDecreasingCostIsUnsatForMonotonicity) {
  Context ctx;
  // forall s: s <= s - 2 is false over positive integers.
  const auto id = ctx.assert_term(Term::forall_positive(
      "s", Term::le(Term::variable("s"),
                    Term::sub(Term::variable("s"), Term::constant(2)))));
  const CheckResult r = ctx.check();
  ASSERT_EQ(r.status, Status::unsat);
  EXPECT_EQ(r.unsat_core, (std::vector<AssertionId>{id}));
}

TEST(Context, RejectsUndeclaredVariables) {
  Context ctx;
  ctx.declare_variable("x");
  EXPECT_THROW(ctx.assert_less("x", "ghost"), InvalidArgument);
}

TEST(Context, RejectsDuplicateDeclaration) {
  Context ctx;
  ctx.declare_variable("x");
  EXPECT_THROW(ctx.declare_variable("x"), InvalidArgument);
}

TEST(Context, RejectsNonDifferenceRelation) {
  Context ctx;
  ctx.declare_variable("x");
  ctx.declare_variable("y");
  // 2x - y < 0 has a non-unit coefficient.
  EXPECT_THROW(
      ctx.assert_term(Term::lt(
          Term::mul(Term::constant(2), Term::variable("x")),
          Term::variable("y"))),
      InvalidArgument);
}

TEST(Context, CheckSubsetIgnoresOtherAssertions) {
  Context ctx;
  ctx.declare_variable("x");
  ctx.declare_variable("y");
  const auto good = ctx.assert_less("x", "y");
  ctx.assert_less("y", "x");  // conflicting, but not in the subset
  EXPECT_EQ(ctx.check_subset({good}).status, Status::sat);
  EXPECT_EQ(ctx.check().status, Status::unsat);
}

// ------------------------------------- incremental solving and scopes --

// Regression for the AssertionId stability contract: ids survive
// interleaved assert/retract/reassert, and unsat cores reported afterwards
// name the right assertions.
TEST(Context, AssertionIdsStableAcrossRetractAndReassert) {
  Context ctx;
  for (const char* v : {"x", "y", "z"}) ctx.declare_variable(v);
  const auto a = ctx.assert_less("x", "y", "x<y");
  const auto b = ctx.assert_less("y", "z", "y<z");
  ctx.retract(a);
  const auto c = ctx.assert_less("z", "x", "z<x");
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  // A retracted assertion keeps its identity...
  EXPECT_EQ(ctx.describe(a), "x<y");
  EXPECT_FALSE(ctx.is_active(a));
  EXPECT_EQ(ctx.check().status, Status::sat);  // y<z, z<x alone: satisfiable
  // ...and reasserting restores it under the original id, with a correct
  // minimal core across the whole interleaving.
  ctx.reassert(a);
  const CheckResult r = ctx.check();
  ASSERT_EQ(r.status, Status::unsat);
  const std::set<AssertionId> core(r.unsat_core.begin(), r.unsat_core.end());
  EXPECT_EQ(core, (std::set<AssertionId>{a, b, c}));
  for (const AssertionId id : r.unsat_core) {
    EXPECT_NO_THROW((void)ctx.describe(id));
  }
}

TEST(Context, PoppedIdsAreNeverReused) {
  Context ctx;
  ctx.declare_variable("x");
  ctx.declare_variable("y");
  const auto base = ctx.assert_less("x", "y", "base");
  ctx.push();
  const auto scoped = ctx.assert_less("y", "x", "scoped");
  EXPECT_EQ(ctx.check().status, Status::unsat);
  ctx.pop();
  const auto later = ctx.assert_less_equal("x", "y", "later");
  EXPECT_NE(later, scoped);  // the popped id is gone for good
  EXPECT_THROW((void)ctx.describe(scoped), InvalidArgument);
  EXPECT_EQ(ctx.describe(later), "later");
  EXPECT_EQ(ctx.describe(base), "base");
  EXPECT_EQ(ctx.check().status, Status::sat);
}

TEST(Context, PopUndoesFlagFlipsMadeInScope) {
  Context ctx;
  ctx.declare_variable("x");
  ctx.declare_variable("y");
  const auto a = ctx.assert_less("x", "y");
  ctx.push();
  ctx.retract(a);
  const auto b = ctx.assert_less("y", "x");
  EXPECT_EQ(ctx.check().status, Status::sat);  // only y<x active in scope
  (void)b;
  ctx.pop();
  EXPECT_TRUE(ctx.is_active(a));
  EXPECT_EQ(ctx.active_assertion_count(), 1u);
  EXPECT_EQ(ctx.check().status, Status::sat);
}

TEST(Context, AssumptionCheckActivatesRetractedAssertions) {
  Context ctx;
  for (const char* v : {"a", "b", "c"}) ctx.declare_variable(v);
  const auto i1 = ctx.assert_less("a", "b", "a<b");
  const auto i2 = ctx.assert_less("b", "c", "b<c");
  const auto i3 = ctx.assert_less("c", "a", "c<a");
  ctx.retract(i3);

  CheckResult without = ctx.check(std::vector<AssertionId>{});
  ASSERT_EQ(without.status, Status::sat);
  EXPECT_LT(without.model.at("a"), without.model.at("b"));
  EXPECT_LT(without.model.at("b"), without.model.at("c"));

  const CheckResult with = ctx.check({i3});
  ASSERT_EQ(with.status, Status::unsat);
  const std::set<AssertionId> core(with.unsat_core.begin(),
                                   with.unsat_core.end());
  EXPECT_EQ(core, (std::set<AssertionId>{i1, i2, i3}));
  // The retraction itself is untouched by assumption checks.
  EXPECT_FALSE(ctx.is_active(i3));
  EXPECT_EQ(ctx.check(std::vector<AssertionId>{}).status, Status::sat);
}

TEST(Context, AssumptionChecksShareOneEngineAcrossScopedExtras) {
  // The repair pattern: a fixed base, retractable members, per-candidate
  // scoped extras. The incremental engine must be built exactly once.
  Context ctx;
  for (const char* v : {"a", "b", "c", "d"}) ctx.declare_variable(v);
  ctx.assert_less("a", "b");
  ctx.assert_less("b", "c");
  const auto variable = ctx.assert_less("c", "d", "c<d");
  ctx.retract(variable);

  for (int round = 0; round < 8; ++round) {
    ctx.push();
    const auto extra = (round % 2 == 0)
                           ? ctx.assert_less("d", "a", "d<a")
                           : ctx.assert_less_equal("a", "d", "a<=d");
    (void)extra;
    const CheckResult r = ctx.check({variable});
    EXPECT_EQ(r.status, round % 2 == 0 ? Status::unsat : Status::sat);
    ctx.pop();
  }
  EXPECT_EQ(ctx.incremental_check_count(), 8u);
  EXPECT_EQ(ctx.incremental_rebuild_count(), 1u);
}

TEST(Context, AssumptionCheckHandlesTriviallyFalseAssumption) {
  Context ctx;
  ctx.declare_variable("x");
  const auto bad = ctx.assert_term(Term::forall_positive(
      "s", Term::lt(Term::variable("s"), Term::variable("s"))));
  ctx.retract(bad);
  EXPECT_EQ(ctx.check(std::vector<AssertionId>{}).status, Status::sat);
  const CheckResult r = ctx.check({bad});
  ASSERT_EQ(r.status, Status::unsat);
  EXPECT_EQ(r.unsat_core, (std::vector<AssertionId>{bad}));
}

TEST(Context, IncrementalRebuildAfterBaseRetraction) {
  Context ctx;
  ctx.declare_variable("x");
  ctx.declare_variable("y");
  const auto a = ctx.assert_less("x", "y");
  const auto b = ctx.assert_less("y", "x");
  EXPECT_EQ(ctx.check(std::vector<AssertionId>{}).status, Status::unsat);
  // Retracting a base member invalidates the engine base; the next
  // incremental check must rebuild and get the right answer.
  ctx.retract(b);
  EXPECT_EQ(ctx.check(std::vector<AssertionId>{}).status, Status::sat);
  EXPECT_EQ(ctx.check({b}).status, Status::unsat);
  (void)a;
  EXPECT_GE(ctx.incremental_rebuild_count(), 2u);
}

// Property sweep against the Bellman-Ford referee: on random systems whose
// retracted atoms serve as assumptions, check() and check(assumptions)
// agree with solve_difference_system on the verdict, return exactly its
// model on sat, and report cores the referee finds unsat and minimal.
class IncrementalContextProperty : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalContextProperty, AgreesWithFromScratch) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  constexpr int n_vars = 5;
  std::uniform_int_distribution<int> var_dist(1, n_vars);
  std::uniform_int_distribution<int> rel_dist(0, 2);

  Context ctx;
  for (int v = 1; v <= n_vars; ++v) {
    ctx.declare_variable("v" + std::to_string(v));
  }
  struct Atom {
    AssertionId id;
    int lhs, rhs, rel;  // rel: 0 '<', 1 '<=', 2 '='
  };
  std::vector<Atom> atoms;
  for (int i = 0; i < 10; ++i) {
    Atom atom{0, var_dist(rng), var_dist(rng), rel_dist(rng)};
    const std::string lhs = "v" + std::to_string(atom.lhs);
    const std::string rhs = "v" + std::to_string(atom.rhs);
    atom.id = atom.rel == 0   ? ctx.assert_less(lhs, rhs)
              : atom.rel == 1 ? ctx.assert_less_equal(lhs, rhs)
                              : ctx.assert_equal(lhs, rhs);
    atoms.push_back(atom);
  }
  // Retract a random subset; those become assumption candidates.
  std::vector<AssertionId> retractable;
  for (const Atom& atom : atoms) {
    if (rng() % 2 == 0) {
      ctx.retract(atom.id);
      retractable.push_back(atom.id);
    }
  }

  // The referee's system for a set of atoms: variable i is v<i>, 0 is the
  // zero variable, and every variable carries the positivity type bound.
  const auto referee = [&](const std::vector<AssertionId>& ids) {
    std::vector<DiffConstraint> cs;
    for (int v = 1; v <= n_vars; ++v) cs.push_back({0, v, -1, -1});
    for (const AssertionId id : ids) {
      const Atom& atom = atoms[static_cast<std::size_t>(id)];
      cs.push_back({atom.lhs, atom.rhs, atom.rel == 0 ? -1 : 0, id});
      if (atom.rel == 2) cs.push_back({atom.rhs, atom.lhs, 0, id});
    }
    return solve_difference_system(n_vars + 1, cs);
  };
  const auto expect_agrees = [&](const CheckResult& r,
                                 const std::vector<AssertionId>& checked,
                                 const std::string& entry) {
    const DiffResult expected = referee(checked);
    ASSERT_EQ(r.status == Status::sat, expected.satisfiable) << entry;
    if (expected.satisfiable) {
      for (int v = 1; v <= n_vars; ++v) {
        EXPECT_EQ(r.model.at("v" + std::to_string(v)),
                  expected.model[static_cast<std::size_t>(v)])
            << entry << ": v" << v;
      }
      return;
    }
    EXPECT_FALSE(referee(r.unsat_core).satisfiable)
        << entry << ": core is satisfiable";
    for (std::size_t i = 0; i < r.unsat_core.size(); ++i) {
      std::vector<AssertionId> without;
      for (std::size_t j = 0; j < r.unsat_core.size(); ++j) {
        if (j != i) without.push_back(r.unsat_core[j]);
      }
      EXPECT_TRUE(referee(without).satisfiable)
          << entry << ": core is not minimal";
    }
  };

  for (int round = 0; round < 6; ++round) {
    std::vector<AssertionId> assumptions;
    for (const AssertionId id : retractable) {
      if (rng() % 2 == 0) assumptions.push_back(id);
    }
    std::vector<AssertionId> checked;
    for (const Atom& atom : atoms) {
      if (ctx.is_active(atom.id)) checked.push_back(atom.id);
    }
    expect_agrees(ctx.check(), checked, "check() round " +
                                            std::to_string(round));
    checked.insert(checked.end(), assumptions.begin(), assumptions.end());
    expect_agrees(ctx.check(assumptions), checked,
                  "check(assumptions) round " + std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomIncrementalSystems, IncrementalContextProperty,
                         ::testing::Range(0, 30));

// ------------------------------------------------------ yices frontend --

// Paper Section IV-C, example 1: shortest hop-count. Expected: sat.
TEST(YicesFrontend, ShortestHopCountIsSat) {
  YicesFrontend frontend;
  const ScriptResult r = frontend.run_script(R"(
    (define-type Sig (subtype (n::nat) (> n 0)))
    (assert (forall (s::Sig) (< s (+ s 1))))
    (check)
  )");
  EXPECT_EQ(r.single_check().status, Status::sat);
  EXPECT_EQ(r.transcript.front(), "sat");
}

// Paper Section IV-C, example 2: Gao-Rexford guideline A, strict
// monotonicity. Expected: unsat (the c (+) C = C entry violates it).
TEST(YicesFrontend, GaoRexfordStrictIsUnsat) {
  YicesFrontend frontend;
  const ScriptResult r = frontend.run_script(R"(
    (define-type Sig (subtype (n::nat) (> n 0)))
    (define C::Sig) (define P::Sig) (define R::Sig)
    ;; preference relations
    (assert (< C R)) (assert (< C P)) (assert (= R P))
    ;; strict monotonicity
    (assert (< C C)) (assert (< C R)) (assert (< C P))
    (assert (< R P)) (assert (< P P))
    (check)
  )");
  const CheckOutcome& outcome = r.single_check();
  ASSERT_EQ(outcome.status, Status::unsat);
  // Minimal core: a single self-strict constraint such as (< C C).
  ASSERT_EQ(outcome.core_texts.size(), 1u);
  EXPECT_TRUE(outcome.core_texts[0] == "(< C C)" ||
              outcome.core_texts[0] == "(< P P)");
}

// Paper Section IV-C, example 2 continued: plain monotonicity of guideline
// A. Expected: sat with the instantiation C=1, P=2, R=2.
TEST(YicesFrontend, GaoRexfordMonotoneIsSatWithPaperModel) {
  YicesFrontend frontend;
  const ScriptResult r = frontend.run_script(R"(
    (define-type Sig (subtype (n::nat) (> n 0)))
    (define C::Sig) (define P::Sig) (define R::Sig)
    (assert (< C R)) (assert (< C P)) (assert (= R P))
    (assert (<= C C)) (assert (<= C R)) (assert (<= C P))
    (assert (<= R P)) (assert (<= P P))
    (check)
  )");
  const CheckOutcome& outcome = r.single_check();
  ASSERT_EQ(outcome.status, Status::sat);
  EXPECT_EQ(outcome.model.at("C"), 1);
  EXPECT_EQ(outcome.model.at("P"), 2);
  EXPECT_EQ(outcome.model.at("R"), 2);
}

TEST(YicesFrontend, ResetClearsState) {
  YicesFrontend frontend;
  ScriptResult r = frontend.run_script(R"(
    (define-type Sig (subtype (n::nat) (> n 0)))
    (define X::Sig)
    (assert (< X X))
    (check)
    (reset)
  )");
  EXPECT_EQ(r.single_check().status, Status::unsat);
  // After reset the same definitions are accepted again... but types were
  // reset too, so re-run a full fresh script through the same frontend.
  const ScriptResult r2 = frontend.run_script(R"(
    (define-type Sig (subtype (n::nat) (> n 0)))
    (define X::Sig)
    (check)
  )");
  EXPECT_EQ(r2.single_check().status, Status::sat);
}

TEST(YicesFrontend, IgnoresHousekeepingCommands) {
  YicesFrontend frontend;
  const ScriptResult r = frontend.run_script(R"(
    (set-evidence! true)
    (set-verbosity 3)
    (check)
  )");
  EXPECT_EQ(r.single_check().status, Status::sat);
}

TEST(YicesFrontend, RejectsUnknownCommand) {
  YicesFrontend frontend;
  EXPECT_THROW(frontend.run_script("(frobnicate)"), InvalidArgument);
}

TEST(YicesFrontend, RejectsUnknownType) {
  YicesFrontend frontend;
  EXPECT_THROW(frontend.run_script("(define X::Mystery)"), InvalidArgument);
}

TEST(YicesFrontend, NatTypeAllowsZero) {
  YicesFrontend frontend;
  const ScriptResult r = frontend.run_script(R"(
    (define x::nat)
    (assert (< x 1))
    (check)
  )");
  ASSERT_EQ(r.single_check().status, Status::sat);
  EXPECT_EQ(r.single_check().model.at("x"), 0);
}

TEST(YicesFrontend, IntTypeAllowsNegative) {
  YicesFrontend frontend;
  const ScriptResult r = frontend.run_script(R"(
    (define x::int)
    (assert (< x 0))
    (check)
  )");
  ASSERT_EQ(r.single_check().status, Status::sat);
  EXPECT_LT(r.single_check().model.at("x"), 0);
}

TEST(YicesFrontend, SubtypeGeBound) {
  YicesFrontend frontend;
  const ScriptResult r = frontend.run_script(R"(
    (define-type Cost (subtype (n::nat) (>= n 10)))
    (define x::Cost)
    (check)
  )");
  ASSERT_EQ(r.single_check().status, Status::sat);
  EXPECT_GE(r.single_check().model.at("x"), 10);
}

TEST(YicesFrontend, RetractCoreAndRecheckWorkflow) {
  // The iterative repair loop from Section IV-B: remove reported cores one
  // at a time until the configuration is satisfiable.
  YicesFrontend frontend;
  ScriptResult r = frontend.run_script(R"(
    (define-type Sig (subtype (n::nat) (> n 0)))
    (define a::Sig) (define b::Sig) (define c::Sig)
    (assert (< a b)) (assert (< b a))
    (assert (< b c)) (assert (< c b))
    (check)
  )");
  int repairs = 0;
  while (r.checks.back().status == Status::unsat) {
    ASSERT_LT(repairs, 4) << "repair loop failed to terminate";
    for (const AssertionId id : r.checks.back().core_ids) {
      frontend.context().retract(id);
    }
    ++repairs;
    ScriptResult next;
    frontend.execute(parse_sexpr("(check)"), next);
    r = next;
  }
  EXPECT_EQ(r.checks.back().status, Status::sat);
  EXPECT_EQ(repairs, 2);  // two independent 2-cycles
}

// Property-style sweep: random difference systems are checked against a
// brute-force assignment enumerator over a small domain. If brute force
// finds a solution in [1, domain]^n the solver must say sat; if the solver
// says sat its model must satisfy every constraint (checked exactly).
class DifferenceEngineProperty : public ::testing::TestWithParam<int> {};

TEST_P(DifferenceEngineProperty, AgreesWithBruteForce) {
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
  constexpr int n_vars = 4;  // excluding the zero variable; brute domain 1..4
  std::uniform_int_distribution<int> var_dist(1, n_vars);
  std::uniform_int_distribution<int> rel_dist(0, 2);
  std::uniform_int_distribution<int> count_dist(2, 8);

  Context ctx;
  for (int v = 1; v <= n_vars; ++v) {
    ctx.declare_variable("v" + std::to_string(v));
  }
  struct Atom {
    int lhs, rhs, rel;  // rel: 0 '<', 1 '<=', 2 '='
  };
  std::vector<Atom> atoms;
  const int count = count_dist(rng);
  for (int i = 0; i < count; ++i) {
    Atom a{var_dist(rng), var_dist(rng), rel_dist(rng)};
    atoms.push_back(a);
    const std::string lhs = "v" + std::to_string(a.lhs);
    const std::string rhs = "v" + std::to_string(a.rhs);
    if (a.rel == 0) {
      ctx.assert_less(lhs, rhs);
    } else if (a.rel == 1) {
      ctx.assert_less_equal(lhs, rhs);
    } else {
      ctx.assert_equal(lhs, rhs);
    }
  }

  const CheckResult r = ctx.check();

  // Brute force over the small domain.
  bool brute_sat = false;
  std::array<int, n_vars + 1> assign{};
  const auto satisfied = [&](const Atom& a) {
    const int l = assign[static_cast<std::size_t>(a.lhs)];
    const int rr = assign[static_cast<std::size_t>(a.rhs)];
    return a.rel == 0 ? l < rr : a.rel == 1 ? l <= rr : l == rr;
  };
  const int total = 1 << (2 * n_vars);  // 4 values -> 2 bits per var
  for (int word = 0; word < total && !brute_sat; ++word) {
    for (int v = 1; v <= n_vars; ++v) {
      assign[static_cast<std::size_t>(v)] = ((word >> (2 * (v - 1))) & 3) + 1;
    }
    brute_sat = std::all_of(atoms.begin(), atoms.end(), satisfied);
  }

  if (brute_sat) {
    EXPECT_EQ(r.status, Status::sat)
        << "brute force found a model but solver reported unsat";
  }
  if (r.status == Status::sat) {
    // Solver model must satisfy all constraints (over unbounded ints).
    for (const Atom& a : atoms) {
      const auto l = r.model.at("v" + std::to_string(a.lhs));
      const auto rr = r.model.at("v" + std::to_string(a.rhs));
      if (a.rel == 0) {
        EXPECT_LT(l, rr);
      } else if (a.rel == 1) {
        EXPECT_LE(l, rr);
      } else {
        EXPECT_EQ(l, rr);
      }
    }
  } else {
    // Unsat: the reported core must itself be unsatisfiable and minimal.
    EXPECT_EQ(ctx.check_subset(r.unsat_core).status, Status::unsat);
    for (std::size_t i = 0; i < r.unsat_core.size(); ++i) {
      std::vector<AssertionId> without;
      for (std::size_t j = 0; j < r.unsat_core.size(); ++j) {
        if (j != i) without.push_back(r.unsat_core[j]);
      }
      EXPECT_EQ(ctx.check_subset(without).status, Status::sat)
          << "core is not minimal";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, DifferenceEngineProperty,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace fsr::smt
