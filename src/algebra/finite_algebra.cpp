#include "algebra/finite_algebra.h"

#include <memory>

#include "util/error.h"

namespace fsr::algebra {

// ------------------------------------------------------------- queries --

bool FiniteAlgebra::import_allows(const Value& label, const Value& sig) const {
  const auto it = import_.find({label.as_atom(), sig.as_atom()});
  return it == import_.end() ? true : it->second;
}

bool FiniteAlgebra::export_allows(const Value& label, const Value& sig) const {
  const auto it = export_.find({label.as_atom(), sig.as_atom()});
  return it == export_.end() ? true : it->second;
}

std::optional<Value> FiniteAlgebra::extend(const Value& label,
                                           const Value& sig) const {
  const auto it = generation_.find({label.as_atom(), sig.as_atom()});
  if (it == generation_.end()) return std::nullopt;
  return Value::atom(it->second);
}

Value FiniteAlgebra::complement(const Value& label) const {
  const auto it = complements_.find(label.as_atom());
  if (it == complements_.end()) {
    throw InvalidArgument("algebra '" + name_ + "' has no complement for '" +
                          label.as_atom() + "'");
  }
  return Value::atom(it->second);
}

std::optional<Value> FiniteAlgebra::originate(const Value& label) const {
  const auto it = origination_.find(label.as_atom());
  if (it == origination_.end()) return std::nullopt;
  return Value::atom(it->second);
}

void FiniteAlgebra::index_of_or_throw(const std::string& sig) const {
  if (!sig_index_.contains(sig)) {
    throw InvalidArgument("algebra '" + name_ + "' has no signature '" + sig +
                          "'");
  }
}

Ordering FiniteAlgebra::compare(const Value& lhs, const Value& rhs) const {
  if (!preferences_consistent_) {
    throw InvalidArgument(
        "algebra '" + name_ +
        "' has cyclic preferences; compare() is undefined (the safety "
        "analyzer can still process the algebra symbolically)");
  }
  const std::string& a = lhs.as_atom();
  const std::string& b = rhs.as_atom();
  index_of_or_throw(a);
  index_of_or_throw(b);
  const std::size_t i = sig_index_.at(a);
  const std::size_t j = sig_index_.at(b);
  if (i == j) return Ordering::equal;
  const bool ab_strict = reaches(reach_strict_, i, j);
  const bool ba_strict = reaches(reach_strict_, j, i);
  const bool ab_weak = reaches(reach_weak_, i, j);
  const bool ba_weak = reaches(reach_weak_, j, i);
  if (ab_strict) return Ordering::better;
  if (ba_strict) return Ordering::worse;
  if (ab_weak && ba_weak) return Ordering::equal;  // mutual weak: same class
  if (ab_weak) return Ordering::better;  // documented: one-way weak resolves
  if (ba_weak) return Ordering::worse;   // in the weak edge's direction
  return Ordering::incomparable;
}

SymbolicSpec FiniteAlgebra::symbolic() const {
  SymbolicSpec spec;
  spec.algebra_name = name_;
  spec.signatures.assign(signatures_.begin(), signatures_.end());
  spec.preferences = preferences_;
  // Combined (+) entries: phi rows are skipped (s strictly-precedes phi by
  // definition, so they impose no constraint; Section IV-C). Only declared
  // generation entries can be non-phi, and the map's (label, sig) order is
  // the labels-then-signatures order of the two sets.
  for (const auto& [key, result] : generation_) {
    const auto imp = import_.find(key);
    if (imp != import_.end() && !imp->second) continue;
    const auto exp = export_.find(key);
    if (exp != export_.end() && !exp->second) continue;
    const auto& [label, sig] = key;
    spec.extensions.push_back(SymbolicSpec::Extension{
        label, sig, result, label + " (+) " + sig + " = " + result});
  }
  return spec;
}

// Computes reachability over the declared preference constraints:
// reach_weak[i][j]  = sig_i is at least as preferred as sig_j (derivable);
// reach_strict[i][j]= derivation uses at least one strict step.
// Equal constraints contribute edges in both directions.
void FiniteAlgebra::compute_preference_closure() {
  std::size_t n = 0;
  for (const std::string& sig : signatures_) sig_index_[sig] = n++;

  row_words_ = (n + 63) / 64;
  reach_weak_.assign(n * row_words_, 0);
  reach_strict_.assign(n * row_words_, 0);
  const auto set = [this](std::vector<std::uint64_t>& rows, std::size_t i,
                          std::size_t j) {
    rows[i * row_words_ + j / 64] |= std::uint64_t{1} << (j % 64);
  };
  for (std::size_t i = 0; i < n; ++i) set(reach_weak_, i, i);

  for (const auto& pref : preferences_) {
    const std::size_t i = sig_index_.at(pref.lhs);
    const std::size_t j = sig_index_.at(pref.rhs);
    switch (pref.rel) {
      case PrefRel::strictly_better:
        set(reach_weak_, i, j);
        set(reach_strict_, i, j);
        break;
      case PrefRel::better_or_equal:
        set(reach_weak_, i, j);
        break;
      case PrefRel::equal:
        set(reach_weak_, i, j);
        set(reach_weak_, j, i);
        break;
    }
  }

  // Warshall over bitset rows, tracking strictness: every row i that
  // reaches k gains row k. Its strict row gains all of row k when i -> k
  // is strict, and row k's strict bits otherwise (strict bits imply weak
  // ones, so i -> k -> j is strict exactly when either half is).
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t* weak_k = &reach_weak_[k * row_words_];
    const std::uint64_t* strict_k = &reach_strict_[k * row_words_];
    for (std::size_t i = 0; i < n; ++i) {
      if (!reaches(reach_weak_, i, k)) continue;
      const std::uint64_t* via =
          reaches(reach_strict_, i, k) ? weak_k : strict_k;
      std::uint64_t* weak_i = &reach_weak_[i * row_words_];
      std::uint64_t* strict_i = &reach_strict_[i * row_words_];
      for (std::size_t w = 0; w < row_words_; ++w) {
        weak_i[w] |= weak_k[w];
        strict_i[w] |= via[w];
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (reaches(reach_strict_, i, i)) {
      preferences_consistent_ = false;
      return;
    }
  }
}

// -------------------------------------------------------------- builder --

FiniteAlgebra::Builder::Builder(std::string name) {
  if (name.empty()) throw InvalidArgument("algebra name must be non-empty");
  algebra_.name_ = std::move(name);
}

void FiniteAlgebra::Builder::require_signature(const std::string& sig) const {
  if (!algebra_.signatures_.contains(sig)) {
    throw InvalidArgument("algebra '" + algebra_.name_ +
                          "': undeclared signature '" + sig + "'");
  }
}

void FiniteAlgebra::Builder::require_label(const std::string& label) const {
  if (!algebra_.labels_.contains(label)) {
    throw InvalidArgument("algebra '" + algebra_.name_ +
                          "': undeclared label '" + label + "'");
  }
}

FiniteAlgebra::Builder& FiniteAlgebra::Builder::add_signature(
    const std::string& sig) {
  if (sig.empty()) throw InvalidArgument("signature name must be non-empty");
  algebra_.signatures_.insert(sig);
  return *this;
}

FiniteAlgebra::Builder& FiniteAlgebra::Builder::add_label(
    const std::string& label, const std::string& reverse) {
  if (label.empty() || reverse.empty()) {
    throw InvalidArgument("label names must be non-empty");
  }
  algebra_.labels_.insert(label);
  algebra_.labels_.insert(reverse);
  algebra_.complements_[label] = reverse;
  algebra_.complements_[reverse] = label;
  return *this;
}

FiniteAlgebra::Builder& FiniteAlgebra::Builder::prefer(
    const std::string& lhs, PrefRel rel, const std::string& rhs,
    std::string provenance) {
  require_signature(lhs);
  require_signature(rhs);
  if (provenance.empty()) {
    const char* symbol = rel == PrefRel::strictly_better ? " < "
                         : rel == PrefRel::equal         ? " = "
                                                         : " <= ";
    provenance = lhs + symbol + rhs;
  }
  algebra_.preferences_.push_back(
      SymbolicSpec::Preference{lhs, rel, rhs, std::move(provenance)});
  return *this;
}

FiniteAlgebra::Builder& FiniteAlgebra::Builder::set_generation(
    const std::string& label, const std::string& sig,
    const std::string& result) {
  require_label(label);
  require_signature(sig);
  require_signature(result);
  algebra_.generation_[{label, sig}] = result;
  return *this;
}

FiniteAlgebra::Builder& FiniteAlgebra::Builder::set_import(
    const std::string& label, const std::string& sig, bool allow) {
  require_label(label);
  require_signature(sig);
  algebra_.import_[{label, sig}] = allow;
  return *this;
}

FiniteAlgebra::Builder& FiniteAlgebra::Builder::set_export(
    const std::string& label, const std::string& sig, bool allow) {
  require_label(label);
  require_signature(sig);
  algebra_.export_[{label, sig}] = allow;
  return *this;
}

FiniteAlgebra::Builder& FiniteAlgebra::Builder::set_origination(
    const std::string& label, const std::string& sig) {
  require_label(label);
  require_signature(sig);
  algebra_.origination_[label] = sig;
  return *this;
}

AlgebraPtr FiniteAlgebra::Builder::build() {
  if (built_) throw InvalidArgument("Builder::build called twice");
  built_ = true;
  algebra_.compute_preference_closure();
  return std::shared_ptr<const FiniteAlgebra>(
      new FiniteAlgebra(std::move(algebra_)));
}

}  // namespace fsr::algebra
