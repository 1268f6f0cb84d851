// Term language accepted by the solver context.
//
// FSR's safety encoding (Section IV-B of the paper) only ever produces
// conjunctions of atoms over integer variables:
//
//   s1 < s2      (strict preference / strict monotonicity)
//   s1 <= s2     (preference / plain monotonicity)
//   s1 = s2      (equally preferred classes)
//
// plus, for closed-form algebras such as shortest hop-count, a single
// universally quantified template like (forall (s::Sig) (< s (+ s 1))).
// The term language below covers exactly that fragment: linear integer
// expressions and (in)equality atoms, with one level of universal
// quantification over a positive-integer variable.
#ifndef FSR_SMT_TERM_H
#define FSR_SMT_TERM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace fsr::smt {

enum class TermKind {
  variable,   // named integer variable
  constant,   // integer literal
  add,        // n-ary sum
  sub,        // binary difference
  mul,        // binary product (at most one side non-constant)
  lt,         // <
  le,         // <=
  gt,         // >
  ge,         // >=
  eq,         // =
  forall_pos  // forall bound over positive integers; child 0 is the body,
              // bound variable name stored in `name`
};

/// Immutable expression tree with value semantics. Terms are small (the
/// encodings the toolkit generates are shallow), so plain vectors of
/// children are appropriate; no sharing or interning is needed.
class Term {
 public:
  static Term variable(std::string name) {
    return Term(TermKind::variable, std::move(name), 0, {});
  }
  static Term constant(std::int64_t value) {
    return Term(TermKind::constant, {}, value, {});
  }
  static Term add(Term lhs, Term rhs) {
    return Term(TermKind::add, {}, 0, {std::move(lhs), std::move(rhs)});
  }
  static Term sub(Term lhs, Term rhs) {
    return Term(TermKind::sub, {}, 0, {std::move(lhs), std::move(rhs)});
  }
  static Term mul(Term lhs, Term rhs) {
    return Term(TermKind::mul, {}, 0, {std::move(lhs), std::move(rhs)});
  }
  static Term lt(Term lhs, Term rhs) {
    return Term(TermKind::lt, {}, 0, {std::move(lhs), std::move(rhs)});
  }
  static Term le(Term lhs, Term rhs) {
    return Term(TermKind::le, {}, 0, {std::move(lhs), std::move(rhs)});
  }
  static Term gt(Term lhs, Term rhs) {
    return Term(TermKind::gt, {}, 0, {std::move(lhs), std::move(rhs)});
  }
  static Term ge(Term lhs, Term rhs) {
    return Term(TermKind::ge, {}, 0, {std::move(lhs), std::move(rhs)});
  }
  static Term eq(Term lhs, Term rhs) {
    return Term(TermKind::eq, {}, 0, {std::move(lhs), std::move(rhs)});
  }
  static Term forall_positive(std::string bound_var, Term body) {
    return Term(TermKind::forall_pos, std::move(bound_var), 0,
                {std::move(body)});
  }

  TermKind kind() const noexcept { return kind_; }
  const std::string& name() const noexcept { return name_; }
  std::int64_t value() const noexcept { return value_; }
  const std::vector<Term>& children() const noexcept { return children_; }

  bool is_relation() const noexcept {
    return kind_ == TermKind::lt || kind_ == TermKind::le ||
           kind_ == TermKind::gt || kind_ == TermKind::ge ||
           kind_ == TermKind::eq;
  }

  /// Renders in the prefix syntax the Yices frontend understands, so an
  /// emitted script re-runs to the same terms.
  std::string to_string() const;

 private:
  Term(TermKind kind, std::string name, std::int64_t value,
       std::vector<Term> children)
      : kind_(kind),
        name_(std::move(name)),
        value_(value),
        children_(std::move(children)) {}

  TermKind kind_;
  std::string name_;
  std::int64_t value_;
  std::vector<Term> children_;
};

}  // namespace fsr::smt

#endif  // FSR_SMT_TERM_H
