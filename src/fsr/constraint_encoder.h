// The Section IV-B constraint encoding, shared by the per-call
// SafetyAnalyzer check and the IncrementalSafetySession the repair engine
// drives. Both assert the encoding's typed terms straight into an
// smt::Context; the Yices-style script (render_script) is only a readable
// artifact of the same terms, rendered on demand.
//
// Encoding order is part of the toolkit's contract: preferences first, then
// combined-extension (monotonicity) entries, then additive templates —
// assertion index i corresponds to provenance[i] in every consumer, which
// is how solver cores map back to policy constraints.
#ifndef FSR_FSR_CONSTRAINT_ENCODER_H
#define FSR_FSR_CONSTRAINT_ENCODER_H

#include <map>
#include <string>
#include <vector>

#include "algebra/algebra.h"
#include "fsr/safety_analyzer.h"
#include "smt/term.h"

namespace fsr::encoding {

/// Signature names can contain characters that are not valid solver
/// symbols (SPP signatures look like "r(a-b-e-0)"), so the encoder works
/// over sanitized symbols and keeps a bidirectional mapping.
class SymbolTable {
 public:
  explicit SymbolTable(const std::vector<std::string>& names);

  /// Sanitized symbol of an original signature name; throws
  /// fsr::InvalidArgument for unknown names.
  const std::string& symbol(const std::string& name) const;

  const std::string& original(const std::string& symbol) const;

  const std::vector<std::string>& symbols() const noexcept { return symbols_; }

 private:
  std::map<std::string, std::string> symbol_to_name_;
  std::map<std::string, std::string> name_to_symbol_;
  std::vector<std::string> symbols_;
};

/// Structural identity of one encoded constraint over ORIGINAL signature
/// names; templates carry their rendered line in `lhs`. The repair engine
/// maps these shapes onto path ids to diff candidate configurations
/// against the base.
struct RelationShape {
  std::string rel;  // "<", "<=", "=", or "forall" for additive templates
  std::string lhs;
  std::string rhs;
};

/// The constraints of one encoding, in assertion order (the order defines
/// the AssertionId <-> provenance correspondence). provenance[i].constraint
/// is terms[i].to_string(), e.g. "(< a b)".
struct Encoding {
  std::vector<ConstraintProvenance> provenance;
  std::vector<smt::Term> terms;       // over sanitized symbols
  std::vector<RelationShape> shapes;  // parallel, over original names
};

const char* relation_spelling(algebra::PrefRel rel);

/// The atom `lhs rel rhs` over solver symbols: (< a b), (= a b), (<= a b).
smt::Term relation_term(algebra::PrefRel rel, const std::string& lhs,
                        const std::string& rhs);

Encoding encode(const algebra::SymbolicSpec& spec, MonotonicityMode mode,
                const SymbolTable& symbols);

std::string render_script(const algebra::SymbolicSpec& spec,
                          MonotonicityMode mode, const SymbolTable& symbols,
                          const Encoding& enc);

}  // namespace fsr::encoding

#endif  // FSR_FSR_CONSTRAINT_ENCODER_H
