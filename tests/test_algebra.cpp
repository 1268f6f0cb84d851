// Unit tests for the routing-algebra layer: values, finite algebras, the
// combined-extension derivation (checked against the paper's published
// Gao-Rexford tables), additive algebras, and lexical products.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "algebra/additive_algebra.h"
#include "algebra/finite_algebra.h"
#include "algebra/lexical_product.h"
#include "algebra/standard_policies.h"
#include "util/error.h"
#include "util/rng.h"

namespace fsr::algebra {
namespace {

Value A(const char* s) { return Value::atom(s); }
Value I(std::int64_t v) { return Value::integer(v); }

// ---------------------------------------------------------------- value --

TEST(Value, KindsAndAccessors) {
  EXPECT_EQ(I(7).as_integer(), 7);
  EXPECT_EQ(A("C").as_atom(), "C");
  const Value p = Value::pair(A("C"), I(3));
  EXPECT_EQ(p.first().as_atom(), "C");
  EXPECT_EQ(p.second().as_integer(), 3);
}

TEST(Value, AccessorTypeErrors) {
  EXPECT_THROW(I(1).as_atom(), InvalidArgument);
  EXPECT_THROW(A("x").as_integer(), InvalidArgument);
  EXPECT_THROW(I(1).first(), InvalidArgument);
}

TEST(Value, EqualityAndOrdering) {
  EXPECT_EQ(I(2), I(2));
  EXPECT_NE(I(2), I(3));
  EXPECT_NE(I(2), A("2"));
  EXPECT_LT(I(1), I(2));
  EXPECT_EQ(Value::pair(A("a"), I(1)), Value::pair(A("a"), I(1)));
  EXPECT_NE(Value::pair(A("a"), I(1)), Value::pair(A("a"), I(2)));
}

TEST(Value, ToString) {
  EXPECT_EQ(I(5).to_string(), "5");
  EXPECT_EQ(A("C").to_string(), "C");
  EXPECT_EQ(Value::pair(A("C"), I(2)).to_string(), "(C, 2)");
}

// ------------------------------------------------------ finite algebra --

TEST(FiniteAlgebra, BuilderValidatesNames) {
  FiniteAlgebra::Builder b("t");
  b.add_signature("X");
  EXPECT_THROW(b.prefer("X", PrefRel::strictly_better, "ghost"),
               InvalidArgument);
  EXPECT_THROW(b.set_generation("nolabel", "X", "X"), InvalidArgument);
}

TEST(FiniteAlgebra, DefaultsPhiGenerationAndOpenFilters) {
  FiniteAlgebra::Builder b("t");
  b.add_signature("X");
  b.add_label("l", "l");
  const AlgebraPtr a = b.build();
  EXPECT_TRUE(a->import_allows(A("l"), A("X")));
  EXPECT_TRUE(a->export_allows(A("l"), A("X")));
  EXPECT_FALSE(a->extend(A("l"), A("X")).has_value());  // phi by default
  EXPECT_FALSE(a->originate(A("l")).has_value());
}

TEST(FiniteAlgebra, ComplementIsSymmetric) {
  const AlgebraPtr a = gao_rexford_guideline_a();
  EXPECT_EQ(a->complement(A("c")), A("p"));
  EXPECT_EQ(a->complement(A("p")), A("c"));
  EXPECT_EQ(a->complement(A("r")), A("r"));
}

// The combined (+) of guideline A must reproduce the paper's table:
//        C    R    P
//   c    C    phi  phi
//   r    R    phi  phi
//   p    P    P    P
TEST(FiniteAlgebra, GaoRexfordCombinedTableMatchesPaper) {
  const AlgebraPtr a = gao_rexford_guideline_a();
  const auto combined = [&](const char* l, const char* s) {
    return a->combined_extend(A(l), A(s));
  };
  EXPECT_EQ(combined("c", "C"), A("C"));
  EXPECT_FALSE(combined("c", "R").has_value());
  EXPECT_FALSE(combined("c", "P").has_value());
  EXPECT_EQ(combined("r", "C"), A("R"));
  EXPECT_FALSE(combined("r", "R").has_value());
  EXPECT_FALSE(combined("r", "P").has_value());
  EXPECT_EQ(combined("p", "C"), A("P"));
  EXPECT_EQ(combined("p", "R"), A("P"));
  EXPECT_EQ(combined("p", "P"), A("P"));
}

TEST(FiniteAlgebra, GaoRexfordSymbolicExtensionsAreTheFiveNonPhiEntries) {
  const SymbolicSpec spec = gao_rexford_guideline_a()->symbolic();
  EXPECT_EQ(spec.signatures.size(), 3u);
  EXPECT_EQ(spec.preferences.size(), 3u);
  // Exactly the five constraints of the paper's Section IV-C encoding.
  EXPECT_EQ(spec.extensions.size(), 5u);
}

TEST(FiniteAlgebra, SymbolicExtensionsMatchTheDenseCombinedWalk) {
  // symbolic() visits only declared generation entries. It must emit
  // exactly what the dense labels x signatures walk of combined_extend
  // emits, in the same order and with the same provenance strings, on a
  // table mixing absent generation entries, import- and export-rejected
  // rows, explicitly allowed rows and filter rows with no generation.
  FiniteAlgebra::Builder b("mixed");
  for (const char* sig : {"X", "Y", "Z"}) b.add_signature(sig);
  b.add_label("a", "b");
  b.add_label("c", "c");
  b.set_generation("a", "X", "Y");  // allowed (no filter rows)
  b.set_generation("a", "Y", "Y");  // import-rejected
  b.set_import("a", "Y", false);
  b.set_generation("a", "Z", "X");  // export-rejected
  b.set_export("a", "Z", false);
  b.set_generation("b", "X", "Z");  // explicitly allowed both ways
  b.set_import("b", "X", true);
  b.set_export("b", "X", true);
  b.set_generation("b", "Z", "Z");  // rejected by both filters
  b.set_import("b", "Z", false);
  b.set_export("b", "Z", false);
  b.set_generation("c", "Y", "X");  // allowed
  b.set_import("c", "X", false);    // filter rows without generation
  b.set_export("c", "Z", false);
  const AlgebraPtr algebra = b.build();
  const auto& finite = dynamic_cast<const FiniteAlgebra&>(*algebra);

  std::vector<SymbolicSpec::Extension> dense;
  for (const std::string& label : finite.labels()) {
    for (const std::string& sig : finite.signatures()) {
      const auto extended = finite.combined_extend(A(label.c_str()),
                                                   A(sig.c_str()));
      if (!extended.has_value()) continue;
      const std::string to = extended->as_atom();
      dense.push_back({label, sig, to, label + " (+) " + sig + " = " + to});
    }
  }
  const SymbolicSpec spec = finite.symbolic();
  ASSERT_EQ(spec.extensions.size(), 3u);
  ASSERT_EQ(spec.extensions.size(), dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(spec.extensions[i].label, dense[i].label) << i;
    EXPECT_EQ(spec.extensions[i].from_sig, dense[i].from_sig) << i;
    EXPECT_EQ(spec.extensions[i].to_sig, dense[i].to_sig) << i;
    EXPECT_EQ(spec.extensions[i].provenance, dense[i].provenance) << i;
  }
  EXPECT_EQ(spec.extensions[1].provenance, "b (+) X = Z");
}

TEST(FiniteAlgebra, GaoRexfordPreferences) {
  const AlgebraPtr a = gao_rexford_guideline_a();
  EXPECT_EQ(a->compare(A("C"), A("P")), Ordering::better);
  EXPECT_EQ(a->compare(A("P"), A("C")), Ordering::worse);
  EXPECT_EQ(a->compare(A("P"), A("R")), Ordering::equal);
  EXPECT_EQ(a->compare(A("C"), A("C")), Ordering::equal);
}

TEST(FiniteAlgebra, GuidelineBTotalOrder) {
  const AlgebraPtr b = gao_rexford_guideline_b();
  EXPECT_EQ(b->compare(A("C"), A("R")), Ordering::better);
  EXPECT_EQ(b->compare(A("R"), A("P")), Ordering::better);
  EXPECT_EQ(b->compare(A("C"), A("P")), Ordering::better);  // transitivity
}

TEST(FiniteAlgebra, CyclicPreferencesDetected) {
  FiniteAlgebra::Builder b("cyclic");
  b.add_signature("X").add_signature("Y");
  b.add_label("l", "l");
  b.prefer("X", PrefRel::strictly_better, "Y");
  b.prefer("Y", PrefRel::strictly_better, "X");
  const AlgebraPtr a = b.build();
  const auto* finite = dynamic_cast<const FiniteAlgebra*>(a.get());
  ASSERT_NE(finite, nullptr);
  EXPECT_FALSE(finite->has_consistent_preferences());
  EXPECT_THROW(a->compare(A("X"), A("Y")), InvalidArgument);
  // Symbolic access still works so the analyzer can diagnose the cycle.
  EXPECT_EQ(a->symbolic().preferences.size(), 2u);
}

/// The textbook per-bit Warshall over the declared preferences, written
/// independently of FiniteAlgebra: reach[i][j] is 0 (none), 1 (weak) or 2
/// (strict); a strict self-reach is a strict cycle.
struct DenseClosure {
  std::vector<std::vector<int>> reach;
  bool consistent = true;

  explicit DenseClosure(std::size_t n,
                        const std::vector<std::tuple<std::size_t, PrefRel,
                                                     std::size_t>>& prefs)
      : reach(n, std::vector<int>(n, 0)) {
    for (std::size_t i = 0; i < n; ++i) reach[i][i] = 1;
    for (const auto& [i, rel, j] : prefs) {
      if (rel == PrefRel::strictly_better) reach[i][j] = 2;
      if (rel != PrefRel::strictly_better) {
        reach[i][j] = std::max(reach[i][j], 1);
      }
      if (rel == PrefRel::equal) reach[j][i] = std::max(reach[j][i], 1);
    }
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (reach[i][k] == 0 || reach[k][j] == 0) continue;
          reach[i][j] = std::max({reach[i][j], reach[i][k], reach[k][j]});
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) consistent &= reach[i][i] != 2;
  }

  Ordering compare(std::size_t i, std::size_t j) const {
    if (i == j) return Ordering::equal;
    if (reach[i][j] == 2) return Ordering::better;
    if (reach[j][i] == 2) return Ordering::worse;
    if (reach[i][j] == 1 && reach[j][i] == 1) return Ordering::equal;
    if (reach[i][j] == 1) return Ordering::better;
    if (reach[j][i] == 1) return Ordering::worse;
    return Ordering::incomparable;
  }
};

TEST(FiniteAlgebra, BitsetClosureMatchesADenseWarshall) {
  // Seeded random preference graphs of 2..150 signatures (rows of one to
  // three 64-bit words): mostly rank-respecting strict and weak edges,
  // equal classes, and now and then a backward edge that may close a
  // strict cycle. compare() on every pair and has_consistent_preferences()
  // must agree with the dense reference.
  util::Rng rng(20111);
  int consistent = 0;
  int cyclic = 0;
  for (int graph = 0; graph < 60; ++graph) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 150));
    FiniteAlgebra::Builder b("random-" + std::to_string(graph));
    std::vector<std::string> sigs;
    for (std::size_t i = 0; i < n; ++i) {
      char name[24];
      std::snprintf(name, sizeof name, "s%03zu", i);  // index = name order
      sigs.emplace_back(name);
      b.add_signature(name);
    }
    b.add_label("l", "l");
    std::vector<std::tuple<std::size_t, PrefRel, std::size_t>> prefs;
    const std::int64_t edges =
        rng.uniform_int(0, 2 * static_cast<std::int64_t>(n));
    const bool allow_back = rng.chance(0.5);
    for (std::int64_t e = 0; e < edges; ++e) {
      auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      if (i > j && !(allow_back && rng.chance(0.05))) std::swap(i, j);
      const std::int64_t kind = rng.uniform_int(0, 9);
      const PrefRel rel = kind < 5   ? PrefRel::strictly_better
                          : kind < 8 ? PrefRel::better_or_equal
                                     : PrefRel::equal;
      prefs.emplace_back(i, rel, j);
      b.prefer(sigs[i], rel, sigs[j]);
    }
    const AlgebraPtr a = b.build();
    const auto* finite = dynamic_cast<const FiniteAlgebra*>(a.get());
    ASSERT_NE(finite, nullptr);
    const DenseClosure reference(n, prefs);
    ASSERT_EQ(finite->has_consistent_preferences(), reference.consistent)
        << "graph " << graph;
    if (!reference.consistent) {
      ++cyclic;
      EXPECT_THROW(a->compare(A(sigs[0].c_str()), A(sigs[1].c_str())),
                   InvalidArgument);
      continue;
    }
    ++consistent;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(a->compare(A(sigs[i].c_str()), A(sigs[j].c_str())),
                  reference.compare(i, j))
            << "graph " << graph << ": " << sigs[i] << " vs " << sigs[j];
      }
    }
  }
  // The sweep covers both sides of the consistency check.
  EXPECT_GT(consistent, 10);
  EXPECT_GT(cyclic, 3);
}

TEST(FiniteAlgebra, EqualViaMutualWeakConstraints) {
  FiniteAlgebra::Builder b("weak");
  b.add_signature("X").add_signature("Y");
  b.add_label("l", "l");
  b.prefer("X", PrefRel::better_or_equal, "Y");
  b.prefer("Y", PrefRel::better_or_equal, "X");
  const AlgebraPtr a = b.build();
  EXPECT_EQ(a->compare(A("X"), A("Y")), Ordering::equal);
}

TEST(FiniteAlgebra, IncomparableWhenUnrelated) {
  FiniteAlgebra::Builder b("partial");
  b.add_signature("X").add_signature("Y").add_signature("Z");
  b.add_label("l", "l");
  b.prefer("X", PrefRel::strictly_better, "Y");
  const AlgebraPtr a = b.build();
  EXPECT_EQ(a->compare(A("X"), A("Z")), Ordering::incomparable);
}

TEST(FiniteAlgebra, BackupRoutingDegradesAcrossBackupLinks) {
  const AlgebraPtr a = backup_routing();
  EXPECT_EQ(a->extend(A("b"), A("C")), A("B"));
  EXPECT_EQ(a->extend(A("c"), A("B")), A("B"));  // sticky
  EXPECT_EQ(a->compare(A("P"), A("B")), Ordering::better);
  EXPECT_EQ(a->compare(A("C"), A("B")), Ordering::better);
  // Backup routes may be exported towards providers (that is the point).
  EXPECT_TRUE(a->export_allows(A("c"), A("B")));
  EXPECT_FALSE(a->export_allows(A("c"), A("P")));
}

// ---------------------------------------------------- additive algebra --

TEST(AdditiveAlgebra, HopCountSemantics) {
  const AlgebraPtr a = shortest_hop_count();
  EXPECT_EQ(a->extend(I(1), I(3)), I(4));
  EXPECT_EQ(a->originate(I(1)), I(1));
  EXPECT_EQ(a->compare(I(2), I(5)), Ordering::better);
  EXPECT_EQ(a->compare(I(5), I(5)), Ordering::equal);
  EXPECT_TRUE(a->import_allows(I(1), I(9)));
  EXPECT_TRUE(a->export_allows(I(1), I(9)));
  EXPECT_EQ(a->complement(I(1)), I(1));
}

TEST(AdditiveAlgebra, SymbolicTemplatesPerWeight) {
  const AlgebraPtr a = igp_cost({5, 10});
  const SymbolicSpec spec = a->symbolic();
  EXPECT_TRUE(spec.signatures.empty());
  ASSERT_EQ(spec.additive_templates.size(), 2u);
  EXPECT_EQ(spec.additive_templates[0].delta, 5);
  EXPECT_EQ(spec.additive_templates[1].delta, 10);
}

TEST(AdditiveAlgebra, RejectsEmptyWeights) {
  EXPECT_THROW(AdditiveAlgebra("x", {}), InvalidArgument);
}

// ----------------------------------------------------- lexical product --

TEST(LexicalProduct, PairwiseSemantics) {
  const AlgebraPtr gr_hops = gao_rexford_with_hop_count();
  const Value label = Value::pair(A("c"), I(1));
  const Value sig = Value::pair(A("C"), I(2));
  const auto extended = gr_hops->extend(label, sig);
  ASSERT_TRUE(extended.has_value());
  EXPECT_EQ(*extended, Value::pair(A("C"), I(3)));
}

TEST(LexicalProduct, PrimaryDecidesBeforeTiebreak) {
  const AlgebraPtr gr_hops = gao_rexford_with_hop_count();
  // Customer route with MORE hops still beats provider route with fewer.
  EXPECT_EQ(gr_hops->compare(Value::pair(A("C"), I(9)),
                             Value::pair(A("P"), I(1))),
            Ordering::better);
  // Equal class: hop count breaks the tie.
  EXPECT_EQ(gr_hops->compare(Value::pair(A("C"), I(2)),
                             Value::pair(A("C"), I(4))),
            Ordering::better);
  // P and R are equally preferred; hop count decides.
  EXPECT_EQ(gr_hops->compare(Value::pair(A("P"), I(3)),
                             Value::pair(A("R"), I(2))),
            Ordering::worse);
}

TEST(LexicalProduct, PhiInEitherComponentProhibits) {
  const AlgebraPtr gr_hops = gao_rexford_with_hop_count();
  // Combined c (+) P = phi: the business factor's export filter rejects
  // announcing provider routes towards a provider. (Plain extend is only
  // the generation operator (+)_P, which stays defined.)
  EXPECT_FALSE(gr_hops
                   ->combined_extend(Value::pair(A("c"), I(1)),
                                     Value::pair(A("P"), I(2)))
                   .has_value());
  EXPECT_TRUE(gr_hops
                  ->extend(Value::pair(A("c"), I(1)),
                           Value::pair(A("P"), I(2)))
                  .has_value());
}

TEST(LexicalProduct, ExportFilterComesFromBusinessFactor) {
  const AlgebraPtr gr_hops = gao_rexford_with_hop_count();
  EXPECT_FALSE(gr_hops->export_allows(Value::pair(A("c"), I(1)),
                                      Value::pair(A("P"), I(2))));
  EXPECT_TRUE(gr_hops->export_allows(Value::pair(A("p"), I(1)),
                                     Value::pair(A("P"), I(2))));
}

TEST(LexicalProduct, FactorsFlattenNestedProducts) {
  const AlgebraPtr nested = lexical_product(
      gao_rexford_guideline_a(),
      lexical_product(bandwidth_classes({10, 100}), shortest_hop_count()));
  EXPECT_EQ(nested->lexical_factors().size(), 3u);
}

TEST(LexicalProduct, OriginationComposes) {
  const AlgebraPtr gr_hops = gao_rexford_with_hop_count();
  const auto orig = gr_hops->originate(Value::pair(A("c"), I(1)));
  ASSERT_TRUE(orig.has_value());
  EXPECT_EQ(*orig, Value::pair(A("C"), I(1)));
}

// ------------------------------------------------------ bandwidth ------

TEST(BandwidthClasses, MinSemanticsAndPreference) {
  const AlgebraPtr bw = bandwidth_classes({10, 100, 1000});
  EXPECT_EQ(bw->extend(A("bw100"), A("bw1000")), A("bw100"));  // bottleneck
  EXPECT_EQ(bw->extend(A("bw1000"), A("bw10")), A("bw10"));
  EXPECT_EQ(bw->compare(A("bw1000"), A("bw10")), Ordering::better);
}

TEST(BandwidthClasses, NotStrictlyMonotone) {
  // min(link, route) can leave the class unchanged: the symbolic spec must
  // contain an extension with from == to, which breaks strictness.
  const SymbolicSpec spec = bandwidth_classes({10, 100})->symbolic();
  bool has_fixed_point = false;
  for (const auto& ext : spec.extensions) {
    if (ext.from_sig == ext.to_sig) has_fixed_point = true;
  }
  EXPECT_TRUE(has_fixed_point);
}

}  // namespace
}  // namespace fsr::algebra
