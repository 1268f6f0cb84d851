// The routing-algebra abstraction <Sigma, pref, L, (+)> with FSR's
// extension separating import, generation, and export (Section III-A).
//
// An algebra answers two kinds of questions:
//
//  1. *Operational* — given a label and a signature, what does the policy
//     do? (import_allows / extend / export_allows / compare). These drive
//     the generated distributed implementation and the reference
//     path-vector engine.
//
//  2. *Symbolic* — what constraints define the policy? (symbolic()). These
//     feed the safety analyzer, which encodes them as integer constraints
//     per Section IV-B.
//
// The prohibited signature phi is modelled as std::nullopt so it cannot be
// accidentally routed on.
#ifndef FSR_ALGEBRA_ALGEBRA_H
#define FSR_ALGEBRA_ALGEBRA_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/value.h"

namespace fsr::algebra {

/// Result of comparing two signatures under the preference relation.
/// `better` means the left argument is strictly preferred.
enum class Ordering { better, equal, worse, incomparable };

/// Relation kinds appearing in symbolic preference constraints.
enum class PrefRel { strictly_better, equal, better_or_equal };

/// The symbolic content of an algebra, as consumed by the safety analyzer.
///
/// Finite algebras enumerate concrete signatures, pairwise preference
/// constraints, and combined (+) entries (entries yielding phi are omitted:
/// s strictly-precedes phi holds by definition and contributes nothing).
/// Closed-form additive algebras instead contribute forall templates
/// "forall s: s REL s + delta" — one per distinct label weight.
struct SymbolicSpec {
  std::string algebra_name;

  std::vector<std::string> signatures;

  struct Preference {
    std::string lhs;
    PrefRel rel = PrefRel::strictly_better;
    std::string rhs;
    std::string provenance;  // human-readable origin, e.g. "rank at node a"
  };
  std::vector<Preference> preferences;

  /// One combined-concatenation entry: label (+) from_sig = to_sig.
  struct Extension {
    std::string label;
    std::string from_sig;
    std::string to_sig;
    std::string provenance;
  };
  std::vector<Extension> extensions;

  /// Closed-form monotonicity template: forall s: s REL s + delta.
  struct AdditiveTemplate {
    std::int64_t delta = 0;
    std::string provenance;
  };
  std::vector<AdditiveTemplate> additive_templates;
};

/// Canonical text of a spec — signatures, preference constraints,
/// extension entries, and additive templates in spec order — for content
/// identity. Excludes the algebra name and every provenance text.
std::string canonical_spec(const SymbolicSpec& spec);

/// Abstract routing algebra. Implementations are immutable after
/// construction and therefore freely shareable across threads.
class RoutingAlgebra {
 public:
  virtual ~RoutingAlgebra() = default;

  virtual const std::string& name() const noexcept = 0;

  /// Import filter (+)_I: may node u accept a route with signature `sig`
  /// arriving over its incoming link labelled `label`?
  virtual bool import_allows(const Value& label, const Value& sig) const = 0;

  /// Export filter (+)_E: may a route with signature `sig` be announced
  /// over a link whose RECEIVER-side label is `label`?
  ///
  /// Orientation note. The paper's (+)_E tables (Section III-A) are keyed
  /// by the label the *receiver* assigns to the link — its row `c` reads
  /// "exports only customer routes to a provider" (the receiver of such an
  /// export sees a customer link). That convention is what makes the
  /// published combined (+) table come out right, so we adopt it verbatim.
  /// A sender that knows its own label L for the link simply queries
  /// export_allows(complement(L), sig); the generated f_export function
  /// does exactly that (see fsr::NdlogGenerator).
  virtual bool export_allows(const Value& label, const Value& sig) const = 0;

  /// Simple concatenation (+)_P: signature of the extended path. Returns
  /// std::nullopt (phi) when the combination is undefined/prohibited.
  virtual std::optional<Value> extend(const Value& label,
                                      const Value& sig) const = 0;

  /// The complement of a label: the label of the reverse link (e.g. the
  /// reverse of a customer link is a provider link). Needed to derive the
  /// combined (+) from the separated filters (Section III-A).
  virtual Value complement(const Value& label) const = 0;

  /// Signature of a one-hop path over a link labelled `label` (the
  /// origination set of the metarouting literature, Section V-B step 4).
  virtual std::optional<Value> originate(const Value& label) const = 0;

  /// Preference comparison. Returns Ordering::incomparable when the policy
  /// leaves the order unspecified (e.g. provider vs peer before any
  /// tie-breaking composition).
  virtual Ordering compare(const Value& lhs, const Value& rhs) const = 0;

  /// Symbolic constraints for the safety analyzer.
  virtual SymbolicSpec symbolic() const = 0;

  /// Factors of a lexical product, in significance order; empty for leaf
  /// algebras. The analyzer applies the composition rule of Section IV-B.
  virtual std::vector<const RoutingAlgebra*> lexical_factors() const {
    return {};
  }

  /// Combined concatenation (+) of Section II: phi when either the import
  /// filter on `label` or the export filter on complement(label) rejects,
  /// otherwise (+)_P. Provided here because the derivation is the same for
  /// every algebra.
  std::optional<Value> combined_extend(const Value& label,
                                       const Value& sig) const;
};

using AlgebraPtr = std::shared_ptr<const RoutingAlgebra>;

}  // namespace fsr::algebra

#endif  // FSR_ALGEBRA_ALGEBRA_H
