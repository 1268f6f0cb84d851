#include "algebra/algebra.h"

namespace fsr::algebra {
namespace {

const char* pref_rel_spelling(PrefRel rel) {
  switch (rel) {
    case PrefRel::strictly_better:
      return "<";
    case PrefRel::equal:
      return "=";
    case PrefRel::better_or_equal:
      return "<=";
  }
  return "<";
}

}  // namespace

std::string canonical_spec(const SymbolicSpec& spec) {
  std::string out = "sigs=";
  for (const std::string& sig : spec.signatures) out += sig + ",";
  out += ";prefs=";
  for (const auto& pref : spec.preferences) {
    out += pref.lhs + pref_rel_spelling(pref.rel) + pref.rhs + ",";
  }
  out += ";exts=";
  for (const auto& ext : spec.extensions) {
    out += ext.label + "(+)" + ext.from_sig + "=" + ext.to_sig + ",";
  }
  out += ";templates=";
  for (const auto& tmpl : spec.additive_templates) {
    out += std::to_string(tmpl.delta) + ",";
  }
  return out;
}

std::optional<Value> RoutingAlgebra::combined_extend(const Value& label,
                                                     const Value& sig) const {
  // `label` is the receiver-side label of the link the route crosses. Both
  // filters are keyed by it (see the orientation note on export_allows):
  // the import filter is the receiver's own, and the export filter row for
  // a receiver-side label describes what the sender may announce over the
  // reverse link. A rejection by either yields phi (std::nullopt).
  if (!import_allows(label, sig)) return std::nullopt;
  if (!export_allows(label, sig)) return std::nullopt;
  return extend(label, sig);
}

}  // namespace fsr::algebra
