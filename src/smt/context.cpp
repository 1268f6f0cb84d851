#include "smt/context.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "smt/linear.h"
#include "util/error.h"

namespace fsr::smt {
namespace {

// Floor/ceil division with mathematically correct behaviour for negative
// operands (C++ integer division truncates toward zero).
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  const std::int64_t q = a / b;
  const std::int64_t r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return -floor_div(-a, b);
}

// Tag used for type (positivity) constraints; never a valid assertion id.
constexpr std::int64_t k_builtin_tag = -1;

// Adds the constraints of one assertion; returns whether the engine stays
// feasible.
bool add_assertion(IncrementalDiffEngine& engine,
                   const std::vector<DiffConstraint>& constraints) {
  for (const DiffConstraint& c : constraints) {
    if (!engine.add(c)) return false;
  }
  return engine.feasible();
}

CheckResult decided_false(AssertionId id) {
  CheckResult result;
  result.status = Status::unsat;
  result.unsat_core = {id};
  return result;
}

}  // namespace

std::int64_t Model::at(const std::string& name) const {
  const auto it = values.find(name);
  if (it == values.end()) {
    throw InvalidArgument("model has no value for variable '" + name + "'");
  }
  return it->second;
}

void Context::declare_variable(const std::string& name,
                               std::optional<std::int64_t> lower_bound) {
  if (name.empty()) throw InvalidArgument("variable name must be non-empty");
  if (variable_ids_.contains(name)) {
    throw InvalidArgument("variable '" + name + "' is already declared");
  }
  // Index 0 is the implicit zero variable; named variables start at 1.
  const auto index = static_cast<std::int32_t>(variables_.size() + 1);
  variables_.push_back(VariableInfo{name, lower_bound});
  variable_ids_.emplace(name, index);
  ++base_revision_;
}

bool Context::has_variable(const std::string& name) const {
  return variable_ids_.contains(name);
}

std::int32_t Context::variable_index(const std::string& name) const {
  const auto it = variable_ids_.find(name);
  if (it == variable_ids_.end()) {
    throw InvalidArgument("undeclared variable '" + name + "'");
  }
  return it->second;
}

std::size_t Context::index_for(AssertionId id, const char* who) const {
  const auto it = id_to_index_.find(id);
  if (it == id_to_index_.end()) {
    throw InvalidArgument(std::string(who) + ": unknown assertion id");
  }
  return it->second;
}

Context::AssertionInfo& Context::info_for(AssertionId id, const char* who) {
  return assertions_[index_for(id, who)];
}

const Context::AssertionInfo& Context::info_for(AssertionId id,
                                                const char* who) const {
  return assertions_[index_for(id, who)];
}

AssertionId Context::assert_term(const Term& term, std::string label) {
  AssertionInfo info;
  info.id = next_id_;
  info.label = std::move(label);
  info.text = term.to_string();

  if (term.is_relation()) {
    lower_relation(term, info);
  } else if (term.kind() == TermKind::forall_pos) {
    lower_forall(term, info);
  } else {
    throw InvalidArgument("assertion must be a relation or forall: " +
                          info.text);
  }
  ++next_id_;
  id_to_index_.emplace(info.id, assertions_.size());
  if (info.trivially_false) ++active_trivial_count_;
  if (scopes_.empty()) ++base_revision_;  // base-level assert grows the base
  assertions_.push_back(std::move(info));
  return assertions_.back().id;
}

AssertionId Context::assert_less(const std::string& lhs,
                                 const std::string& rhs, std::string label) {
  return assert_term(Term::lt(Term::variable(lhs), Term::variable(rhs)),
                     std::move(label));
}

AssertionId Context::assert_less_equal(const std::string& lhs,
                                       const std::string& rhs,
                                       std::string label) {
  return assert_term(Term::le(Term::variable(lhs), Term::variable(rhs)),
                     std::move(label));
}

AssertionId Context::assert_equal(const std::string& lhs,
                                  const std::string& rhs, std::string label) {
  return assert_term(Term::eq(Term::variable(lhs), Term::variable(rhs)),
                     std::move(label));
}

void Context::record_flag_change(AssertionId id, bool previous) {
  if (!scopes_.empty()) {
    scopes_.back().flag_changes.emplace_back(id, previous);
  }
}

void Context::retract(AssertionId id) {
  AssertionInfo& info = info_for(id, "retract");
  if (info.active) {
    record_flag_change(id, true);
    info.active = false;
    if (info.trivially_false) --active_trivial_count_;
    ++base_revision_;
  }
}

void Context::reassert(AssertionId id) {
  AssertionInfo& info = info_for(id, "reassert");
  if (!info.active) {
    record_flag_change(id, false);
    info.active = true;
    if (info.trivially_false) ++active_trivial_count_;
    ++base_revision_;
  }
}

bool Context::is_active(AssertionId id) const {
  return info_for(id, "is_active").active;
}

void Context::push() {
  ScopeInfo scope;
  scope.assertion_count = assertions_.size();
  scopes_.push_back(std::move(scope));
}

void Context::pop() {
  if (scopes_.empty()) {
    throw InvalidArgument("pop without matching push");
  }
  ScopeInfo scope = std::move(scopes_.back());
  scopes_.pop_back();
  // Undo flag flips in reverse order; skip ids of assertions that were both
  // created and flipped inside the scope (they are about to be removed).
  for (auto it = scope.flag_changes.rbegin(); it != scope.flag_changes.rend();
       ++it) {
    const auto found = id_to_index_.find(it->first);
    if (found == id_to_index_.end()) continue;
    if (found->second >= scope.assertion_count) continue;
    AssertionInfo& info = assertions_[found->second];
    if (info.active != it->second && info.trivially_false) {
      it->second ? ++active_trivial_count_ : --active_trivial_count_;
    }
    info.active = it->second;
  }
  while (assertions_.size() > scope.assertion_count) {
    const AssertionInfo& info = assertions_.back();
    if (info.active && info.trivially_false) --active_trivial_count_;
    id_to_index_.erase(info.id);
    assertions_.pop_back();
  }
  // Scope-created assertions are never part of the engine base, so a pop
  // only invalidates it when it restored retract/reassert flips (which may
  // touch base assertions).
  if (!scope.flag_changes.empty()) ++base_revision_;
}

// Lowers `lhs REL rhs` into difference constraints over variable indices.
//
// The linear difference (lhs - rhs) is classified:
//   * no variables:       decided immediately;
//   * one variable:       a bound against the implicit zero variable,
//                         with exact integer tightening for non-unit
//                         coefficients;
//   * two variables (+1/-1): a difference constraint;
//   * anything else:      outside the theory -> InvalidArgument.
void Context::lower_relation(const Term& term, AssertionInfo& out) const {
  LinearForm diff = linearize(term.children().at(0));
  diff -= linearize(term.children().at(1));

  TermKind rel = term.kind();
  // Normalise > and >= by negating the form.
  if (rel == TermKind::gt || rel == TermKind::ge) {
    diff *= -1;
    rel = (rel == TermKind::gt) ? TermKind::lt : TermKind::le;
  }

  // Validate variables are declared before any other analysis, so errors
  // are reported consistently regardless of constraint shape.
  for (const auto& [name, coeff] : diff.coefficients) {
    (void)coeff;
    (void)variable_index(name);
  }

  const auto emit = [&out](std::int32_t minuend, std::int32_t subtrahend,
                           std::int64_t bound, AssertionId id) {
    out.constraints.push_back(DiffConstraint{minuend, subtrahend, bound, id});
  };

  switch (diff.variable_count()) {
    case 0: {
      const std::int64_t c = diff.constant;
      const bool holds = (rel == TermKind::lt)   ? (c < 0)
                         : (rel == TermKind::le) ? (c <= 0)
                                                 : (c == 0);
      out.trivially_false = !holds;
      return;
    }
    case 1: {
      const auto& [name, coeff] = *diff.coefficients.begin();
      const std::int32_t x = variable_index(name);
      const std::int64_t c = diff.constant;
      // coeff * x + c REL 0
      if (rel == TermKind::eq) {
        if (c % coeff != 0) {
          out.trivially_false = true;  // no integer solution
          return;
        }
        const std::int64_t v = -c / coeff;
        emit(x, 0, v, out.id);  // x - 0 <= v
        emit(0, x, -v, out.id);  // 0 - x <= -v  (x >= v)
        return;
      }
      const std::int64_t strict_adjust = (rel == TermKind::lt) ? 1 : 0;
      if (coeff > 0) {
        // x <= floor((-c - adjust) / coeff)
        emit(x, 0, floor_div(-c - strict_adjust, coeff), out.id);
      } else {
        // x >= ceil((c + adjust) / -coeff)
        emit(0, x, -ceil_div(c + strict_adjust, -coeff), out.id);
      }
      return;
    }
    case 2: {
      auto it = diff.coefficients.begin();
      const auto& [name_a, coeff_a] = *it;
      ++it;
      const auto& [name_b, coeff_b] = *it;
      if (!((coeff_a == 1 && coeff_b == -1) ||
            (coeff_a == -1 && coeff_b == 1))) {
        throw InvalidArgument(
            "relation is outside difference logic (non-unit coefficients): " +
            out.text);
      }
      const std::int32_t pos =
          variable_index(coeff_a == 1 ? name_a : name_b);
      const std::int32_t neg =
          variable_index(coeff_a == 1 ? name_b : name_a);
      const std::int64_t c = diff.constant;
      // pos - neg + c REL 0
      switch (rel) {
        case TermKind::lt:
          emit(pos, neg, -c - 1, out.id);
          return;
        case TermKind::le:
          emit(pos, neg, -c, out.id);
          return;
        case TermKind::eq:
          emit(pos, neg, -c, out.id);
          emit(neg, pos, c, out.id);
          return;
        default:
          break;
      }
      throw InvalidArgument("unsupported relation kind");
    }
    default:
      throw InvalidArgument(
          "relation involves more than two variables, outside difference "
          "logic: " +
          out.text);
  }
}

// Decides a universally quantified template over positive integers.
//
// The body must be `lhs REL rhs` with both sides linear in the bound
// variable only; writing the difference as a*s + b, validity over all
// s >= 1 is:
//   <   : (a < 0 and a+b < 0)  or (a == 0 and b < 0)
//   <=  : (a < 0 and a+b <= 0) or (a == 0 and b <= 0)
//   =   : a == 0 and b == 0
// (for a > 0 the form grows without bound, so < / <= must fail).
// A valid forall adds nothing to the context; an invalid one makes the
// whole context unsatisfiable with itself as the (minimal) core.
void Context::lower_forall(const Term& term, AssertionInfo& out) const {
  const Term& body = term.children().at(0);
  if (!body.is_relation()) {
    throw InvalidArgument("forall body must be a relation: " + out.text);
  }
  LinearForm diff = linearize(body.children().at(0));
  diff -= linearize(body.children().at(1));

  TermKind rel = body.kind();
  if (rel == TermKind::gt || rel == TermKind::ge) {
    diff *= -1;
    rel = (rel == TermKind::gt) ? TermKind::lt : TermKind::le;
  }

  std::int64_t a = 0;
  for (const auto& [name, coeff] : diff.coefficients) {
    if (name != term.name()) {
      throw InvalidArgument(
          "forall body may only reference the bound variable '" +
          term.name() + "': " + out.text);
    }
    a = coeff;
  }
  const std::int64_t b = diff.constant;

  bool valid = false;
  switch (rel) {
    case TermKind::lt:
      valid = (a < 0 && a + b < 0) || (a == 0 && b < 0);
      break;
    case TermKind::le:
      valid = (a < 0 && a + b <= 0) || (a == 0 && b <= 0);
      break;
    case TermKind::eq:
      valid = (a == 0 && b == 0);
      break;
    default:
      throw InvalidArgument("unsupported relation in forall: " + out.text);
  }
  out.trivially_false = !valid;
}

// Declares the variables the engine does not have yet, each with its type
// constraint (a lower bound lb gives x >= lb, i.e. 0 - x <= -lb). Seeding
// a new variable at potential(0) + lb makes that constraint a zero-slack
// no-op.
void Context::add_variables(IncrementalDiffEngine& engine) const {
  for (std::int32_t v = engine.variable_count();
       static_cast<std::size_t>(v) <= variables_.size(); ++v) {
    const std::optional<std::int64_t>& bound =
        variables_[static_cast<std::size_t>(v - 1)].lower_bound;
    engine.add_variable(engine.potential(0) + bound.value_or(0));
    if (bound.has_value()) {
      engine.add(DiffConstraint{0, v, -*bound, k_builtin_tag});
    }
  }
}

CheckResult Context::check_subset(const std::vector<AssertionId>& ids) const {
  std::vector<const AssertionInfo*> subset;
  subset.reserve(ids.size());
  for (const AssertionId id : ids) {
    subset.push_back(&info_for(id, "check_subset"));
  }
  // A decided-false assertion (failed forall schema, contradictory constant
  // comparison) is an unsat core on its own.
  for (const AssertionInfo* a : subset) {
    if (a->trivially_false) return decided_false(a->id);
  }
  IncrementalDiffEngine engine(1);
  add_variables(engine);
  for (const AssertionInfo* a : subset) {
    if (!add_assertion(engine, a->constraints)) break;
  }
  return conclude(engine, true);
}

// Rebuilds or extends the cached incremental engine so its base equals the
// active assertions below the outermost live scope (plus type constraints).
// A base that changed by anything other than additions forces a rebuild.
void Context::sync_engine_base() {
  // Fast path: nothing that can affect the base changed since last sync.
  if (engine_synced_once_ && engine_base_revision_ == base_revision_) return;

  const std::size_t floor =
      scopes_.empty() ? assertions_.size()
                      : std::min(scopes_.front().assertion_count,
                                 assertions_.size());
  std::vector<AssertionId> base;
  base.reserve(floor);
  for (std::size_t i = 0; i < floor; ++i) {
    if (assertions_[i].active) base.push_back(assertions_[i].id);
  }

  bool reuse = engine_.has_value();
  if (reuse) {
    const std::set<AssertionId> current(base.begin(), base.end());
    for (const AssertionId id : engine_base_ids_) {
      if (!current.contains(id)) {
        reuse = false;
        break;
      }
    }
  }
  if (!reuse) {
    ++stat_engine_rebuilds_;
    static obs::Counter& rebuild_counter =
        obs::registry().counter("smt.engine_rebuilds");
    rebuild_counter.add(1);
    engine_.emplace(1);
    engine_base_ids_.clear();
  }
  add_variables(*engine_);

  // Add base assertions the engine has not seen yet. Once the base turns
  // infeasible the remaining constraints are recorded without solving; the
  // stored conflict stands for every later check until the base changes.
  const std::set<AssertionId> synced(engine_base_ids_.begin(),
                                     engine_base_ids_.end());
  for (const AssertionId id : base) {
    if (synced.contains(id)) continue;
    const AssertionInfo& a = info_for(id, "check");
    for (const DiffConstraint& c : a.constraints) engine_->add(c);
    engine_base_ids_.push_back(id);
  }
  engine_base_revision_ = base_revision_;
  engine_synced_once_ = true;
}

CheckResult Context::check(const std::vector<AssertionId>& assumptions,
                           bool extract_model) {
  ++stat_incremental_checks_;

  // Validate assumptions before touching solver state.
  std::vector<const AssertionInfo*> assumed;
  assumed.reserve(assumptions.size());
  for (const AssertionId id : assumptions) {
    assumed.push_back(&info_for(id, "check"));
  }

  // A decided-false assertion (failed forall schema, contradictory constant
  // comparison) is an unsat core on its own: actives in assertion order
  // first, then the assumptions. The counter keeps the no-hit case O(1).
  if (active_trivial_count_ > 0) {
    for (const AssertionInfo& a : assertions_) {
      if (a.active && a.trivially_false) return decided_false(a.id);
    }
  }
  for (const AssertionInfo* a : assumed) {
    if (a->trivially_false) return decided_false(a->id);
  }

  sync_engine_base();

  // An infeasible base's recorded conflict answers every check until the
  // base changes.
  if (!engine_->feasible()) return conclude(*engine_, extract_model);

  // Layer scope-local actives and assumptions on the shared base.
  const std::size_t floor =
      scopes_.empty() ? assertions_.size()
                      : std::min(scopes_.front().assertion_count,
                                 assertions_.size());
  engine_->push();
  bool feasible = true;
  for (std::size_t i = floor; i < assertions_.size() && feasible; ++i) {
    if (assertions_[i].active) {
      feasible = add_assertion(*engine_, assertions_[i].constraints);
    }
  }
  for (const AssertionInfo* a : assumed) {
    if (!feasible) break;
    // Actives are already in the base or the scoped layer.
    if (!a->active) feasible = add_assertion(*engine_, a->constraints);
  }
  CheckResult result = conclude(*engine_, extract_model);
  engine_->pop();
  return result;
}

CheckResult Context::conclude(const IncrementalDiffEngine& engine,
                              bool extract_model) const {
  CheckResult result;
  if (engine.feasible()) {
    if (extract_model) {
      const std::vector<std::int64_t> values = engine.model();
      for (std::size_t v = 0; v < variables_.size(); ++v) {
        result.model.values[variables_[v].name] = values[v + 1];
      }
    }
    return result;
  }
  // Type constraints are edges into the zero variable and never leave it,
  // so every negative cycle carries at least one assertion.
  result.status = Status::unsat;
  std::vector<AssertionId> seed;
  for (const std::int64_t tag : engine.conflict_tags()) {
    if (tag != k_builtin_tag) seed.push_back(tag);
  }
  result.unsat_core = minimize_core(seed);
  return result;
}

// Deletion-based minimisation in seed order on a fresh engine. A member
// whose removal leaves the rest satisfiable is necessary for every subset
// of the rest too, so it stays added below the probe scope; each probe
// adds only the members not yet decided.
std::vector<AssertionId> Context::minimize_core(
    const std::vector<AssertionId>& candidate) const {
  IncrementalDiffEngine engine(1);
  add_variables(engine);
  std::vector<AssertionId> core;
  for (std::size_t i = 0; i < candidate.size(); ++i) {
    engine.push();
    bool feasible = engine.feasible();
    for (std::size_t j = i + 1; j < candidate.size() && feasible; ++j) {
      feasible =
          add_assertion(engine, info_for(candidate[j], "check").constraints);
    }
    engine.pop();
    if (feasible) {
      add_assertion(engine, info_for(candidate[i], "check").constraints);
      core.push_back(candidate[i]);
    }
  }
  std::sort(core.begin(), core.end());
  return core;
}

std::string Context::describe(AssertionId id) const {
  const AssertionInfo& a = info_for(id, "describe");
  return a.label.empty() ? a.text : a.label;
}

std::size_t Context::active_assertion_count() const noexcept {
  std::size_t n = 0;
  for (const AssertionInfo& a : assertions_) {
    if (a.active) ++n;
  }
  return n;
}

}  // namespace fsr::smt
