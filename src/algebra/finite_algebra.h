// Finite table-driven routing algebras.
//
// A FiniteAlgebra enumerates its signatures and labels explicitly and
// defines the three concatenation operators and the preference relation by
// tables — the representation used for the Gao-Rexford guidelines, backup
// routing, bandwidth classes, and SPP-derived instances. Build one through
// FiniteAlgebra::Builder:
//
//   FiniteAlgebra::Builder b("gao-rexford-A");
//   b.add_signature("C"); b.add_signature("P"); b.add_signature("R");
//   b.add_label("c", "p");   // customer link; reverse is a provider link
//   b.add_label("r", "r");   // peer links are their own reverse
//   b.prefer("C", PrefRel::strictly_better, "P", "guideline A");
//   b.set_generation("c", "C", "C");  // c (+)P C = C
//   b.set_export("c", "P", false);    // provider may not re-export P
//   b.set_origination("c", "C");
//   AlgebraPtr a = b.build();
//
// Unspecified generation entries are phi (prohibited); unspecified filter
// entries default to allow, mirroring the paper's presentation where only
// the filtering rows are written down.
#ifndef FSR_ALGEBRA_FINITE_ALGEBRA_H
#define FSR_ALGEBRA_FINITE_ALGEBRA_H

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "algebra/algebra.h"

namespace fsr::algebra {

class FiniteAlgebra final : public RoutingAlgebra {
 public:
  class Builder;

  const std::string& name() const noexcept override { return name_; }

  bool import_allows(const Value& label, const Value& sig) const override;
  bool export_allows(const Value& label, const Value& sig) const override;
  std::optional<Value> extend(const Value& label,
                              const Value& sig) const override;
  Value complement(const Value& label) const override;
  std::optional<Value> originate(const Value& label) const override;
  Ordering compare(const Value& lhs, const Value& rhs) const override;
  SymbolicSpec symbolic() const override;

  const std::set<std::string>& signatures() const noexcept {
    return signatures_;
  }
  const std::set<std::string>& labels() const noexcept { return labels_; }

  /// True when the declared preferences are free of strict cycles, i.e.
  /// compare() is usable. An algebra with cyclic preferences can still be
  /// analyzed symbolically (the solver reports the cycle as an unsat core)
  /// but cannot drive a protocol execution.
  bool has_consistent_preferences() const noexcept {
    return preferences_consistent_;
  }

 private:
  friend class Builder;
  FiniteAlgebra() = default;

  using TableKey = std::pair<std::string, std::string>;  // (label, sig)

  void index_of_or_throw(const std::string& sig) const;
  void compute_preference_closure();

  std::string name_;
  std::set<std::string> signatures_;
  std::set<std::string> labels_;
  std::map<std::string, std::string> complements_;
  std::map<TableKey, std::string> generation_;       // (+)_P, absent = phi
  std::map<TableKey, bool> import_;                  // absent = allow
  std::map<TableKey, bool> export_;                  // absent = allow
  std::map<std::string, std::string> origination_;   // label -> signature
  std::vector<SymbolicSpec::Preference> preferences_;

  // Preference closure: for each ordered signature pair, whether lhs is
  // reachable from rhs ("weak") and whether some step is strict. Row i of
  // each relation is a bitset of row_words_ 64-bit words.
  bool reaches(const std::vector<std::uint64_t>& rows, std::size_t i,
               std::size_t j) const noexcept {
    return ((rows[i * row_words_ + j / 64] >> (j % 64)) & 1) != 0;
  }

  std::map<std::string, std::size_t> sig_index_;
  std::size_t row_words_ = 0;
  std::vector<std::uint64_t> reach_weak_;
  std::vector<std::uint64_t> reach_strict_;
  bool preferences_consistent_ = true;
};

class FiniteAlgebra::Builder {
 public:
  explicit Builder(std::string name);

  Builder& add_signature(const std::string& sig);
  /// Declares a label and its reverse-link label (both are registered).
  Builder& add_label(const std::string& label, const std::string& reverse);

  Builder& prefer(const std::string& lhs, PrefRel rel, const std::string& rhs,
                  std::string provenance = {});

  /// label (+)_P sig = result. Unset entries are phi.
  Builder& set_generation(const std::string& label, const std::string& sig,
                          const std::string& result);
  /// Import filter entry; unset entries allow.
  Builder& set_import(const std::string& label, const std::string& sig,
                      bool allow);
  /// Export filter entry, keyed by the receiver-side label; unset allow.
  Builder& set_export(const std::string& label, const std::string& sig,
                      bool allow);
  /// Signature of a one-hop path over `label`.
  Builder& set_origination(const std::string& label, const std::string& sig);

  /// Validates and produces the immutable algebra. Throws
  /// fsr::InvalidArgument on undeclared names or missing complements.
  AlgebraPtr build();

 private:
  void require_signature(const std::string& sig) const;
  void require_label(const std::string& label) const;

  FiniteAlgebra algebra_;
  bool built_ = false;
};

}  // namespace fsr::algebra

#endif  // FSR_ALGEBRA_FINITE_ALGEBRA_H
