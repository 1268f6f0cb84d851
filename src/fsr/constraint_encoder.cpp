#include "fsr/constraint_encoder.h"

#include <cctype>

#include "util/error.h"

namespace fsr::encoding {

SymbolTable::SymbolTable(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    std::string symbol;
    for (const char c : name) {
      symbol.push_back(
          std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
    }
    if (symbol.empty() ||
        std::isdigit(static_cast<unsigned char>(symbol.front())) != 0) {
      symbol.insert(symbol.begin(), 's');
      symbol.insert(symbol.begin() + 1, '_');
    }
    while (symbol_to_name_.contains(symbol)) symbol.push_back('_');
    symbol_to_name_.emplace(symbol, name);
    name_to_symbol_.emplace(name, symbol);
    symbols_.push_back(symbol);
  }
}

const std::string& SymbolTable::symbol(const std::string& name) const {
  const auto it = name_to_symbol_.find(name);
  if (it == name_to_symbol_.end()) {
    throw InvalidArgument("symbolic spec references unknown signature '" +
                          name + "'");
  }
  return it->second;
}

const std::string& SymbolTable::original(const std::string& symbol) const {
  return symbol_to_name_.at(symbol);
}

const char* relation_spelling(algebra::PrefRel rel) {
  switch (rel) {
    case algebra::PrefRel::strictly_better:
      return "<";
    case algebra::PrefRel::equal:
      return "=";
    case algebra::PrefRel::better_or_equal:
      return "<=";
  }
  return "<";
}

smt::Term relation_term(algebra::PrefRel rel, const std::string& lhs,
                        const std::string& rhs) {
  smt::Term a = smt::Term::variable(lhs);
  smt::Term b = smt::Term::variable(rhs);
  switch (rel) {
    case algebra::PrefRel::strictly_better:
      return smt::Term::lt(std::move(a), std::move(b));
    case algebra::PrefRel::equal:
      return smt::Term::eq(std::move(a), std::move(b));
    case algebra::PrefRel::better_or_equal:
      return smt::Term::le(std::move(a), std::move(b));
  }
  return smt::Term::lt(std::move(a), std::move(b));
}

namespace {

void append(Encoding& enc, ConstraintProvenance::Kind kind,
            const std::string& description, smt::Term term,
            RelationShape shape) {
  enc.provenance.push_back(
      ConstraintProvenance{kind, description, term.to_string()});
  enc.terms.push_back(std::move(term));
  enc.shapes.push_back(std::move(shape));
}

}  // namespace

Encoding encode(const algebra::SymbolicSpec& spec, MonotonicityMode mode,
                const SymbolTable& symbols) {
  Encoding enc;
  const algebra::PrefRel mono_rel = mode == MonotonicityMode::strict
                                        ? algebra::PrefRel::strictly_better
                                        : algebra::PrefRel::better_or_equal;

  // Step 2: one constraint per declared preference.
  for (const auto& pref : spec.preferences) {
    append(enc, ConstraintProvenance::Kind::preference, pref.provenance,
           relation_term(pref.rel, symbols.symbol(pref.lhs),
                         symbols.symbol(pref.rhs)),
           RelationShape{relation_spelling(pref.rel), pref.lhs, pref.rhs});
  }
  // Step 3: one (strict-)monotonicity constraint per combined (+) entry.
  for (const auto& ext : spec.extensions) {
    append(enc, ConstraintProvenance::Kind::monotonicity, ext.provenance,
           relation_term(mono_rel, symbols.symbol(ext.from_sig),
                         symbols.symbol(ext.to_sig)),
           RelationShape{relation_spelling(mono_rel), ext.from_sig,
                         ext.to_sig});
  }
  // Closed-form algebras: universally quantified templates
  // (forall (s::Sig) (< s (+ s delta))).
  for (const auto& tmpl : spec.additive_templates) {
    const smt::Term s = smt::Term::variable("s");
    smt::Term body = smt::Term::add(s, smt::Term::constant(tmpl.delta));
    smt::Term term = smt::Term::forall_positive(
        "s", mode == MonotonicityMode::strict
                 ? smt::Term::lt(s, std::move(body))
                 : smt::Term::le(s, std::move(body)));
    std::string line = term.to_string();
    append(enc, ConstraintProvenance::Kind::monotonicity, tmpl.provenance,
           std::move(term), RelationShape{"forall", std::move(line), ""});
  }
  return enc;
}

std::string render_script(const algebra::SymbolicSpec& spec,
                          MonotonicityMode mode, const SymbolTable& symbols,
                          const Encoding& enc) {
  std::string script;
  script += ";; FSR safety encoding for algebra '" + spec.algebra_name + "'\n";
  script += ";; mode: ";
  script += (mode == MonotonicityMode::strict ? "strict monotonicity"
                                              : "monotonicity");
  script += "\n(define-type Sig (subtype (n::nat) (> n 0)))\n";
  for (const std::string& symbol : symbols.symbols()) {
    script += "(define " + symbol + "::Sig)\n";
  }
  bool wrote_pref_banner = false;
  bool wrote_mono_banner = false;
  for (std::size_t i = 0; i < enc.provenance.size(); ++i) {
    if (enc.provenance[i].kind == ConstraintProvenance::Kind::preference &&
        !wrote_pref_banner) {
      script += ";; route preference constraints\n";
      wrote_pref_banner = true;
    }
    if (enc.provenance[i].kind == ConstraintProvenance::Kind::monotonicity &&
        !wrote_mono_banner) {
      script += (mode == MonotonicityMode::strict
                     ? ";; strict monotonicity constraints\n"
                     : ";; monotonicity constraints\n");
      wrote_mono_banner = true;
    }
    script += "(assert " + enc.provenance[i].constraint + ")\n";
  }
  script += "(check)\n";
  return script;
}

}  // namespace fsr::encoding
