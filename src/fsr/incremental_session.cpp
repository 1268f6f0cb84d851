#include "fsr/incremental_session.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace fsr {

IncrementalSafetySession::IncrementalSafetySession(
    const algebra::SymbolicSpec& spec, MonotonicityMode mode, Options options)
    : options_(options),
      symbols_(spec.signatures),
      encoding_(encoding::encode(spec, mode, symbols_)) {
  for (const std::string& symbol : symbols_.symbols()) {
    context_.declare_variable(symbol);
  }
  // Assert in encoding order on a fresh context, so ids_[i] == i and core
  // ids map straight back to encoding indices (same invariant the
  // SafetyAnalyzer's check relies on).
  ids_.reserve(encoding_.terms.size());
  for (const smt::Term& term : encoding_.terms) {
    ids_.push_back(context_.assert_term(term));
  }
  encoding_.terms = {};  // the context keeps them, lowered
  variable_.assign(ids_.size(), 0);
}

const ConstraintProvenance& IncrementalSafetySession::provenance(
    std::size_t index) const {
  if (index >= encoding_.provenance.size()) {
    throw InvalidArgument("session: constraint index out of range");
  }
  return encoding_.provenance[index];
}

const encoding::RelationShape& IncrementalSafetySession::shape(
    std::size_t index) const {
  if (index >= encoding_.shapes.size()) {
    throw InvalidArgument("session: constraint index out of range");
  }
  return encoding_.shapes[index];
}

void IncrementalSafetySession::make_variable(
    const std::vector<std::size_t>& indices) {
  for (const std::size_t index : indices) {
    if (index >= ids_.size()) {
      throw InvalidArgument("session: constraint index out of range");
    }
    if (variable_[index] != 0) continue;
    context_.retract(ids_[index]);
    variable_[index] = 1;
  }
}

bool IncrementalSafetySession::is_variable(std::size_t index) const {
  if (index >= variable_.size()) {
    throw InvalidArgument("session: constraint index out of range");
  }
  return variable_[index] != 0;
}

IncrementalSafetySession::Result IncrementalSafetySession::check(
    const std::vector<std::size_t>& keep, const std::vector<Extra>& extras) {
  ++checks_;
  static obs::Counter& check_counter = obs::registry().counter("smt.checks");
  check_counter.add(1);
  obs::Span span("smt.check");
  span.arg("keep", keep.size());
  span.arg("extras", extras.size());
  std::vector<smt::AssertionId> kept_ids;
  kept_ids.reserve(keep.size());
  for (const std::size_t index : keep) {
    if (index >= ids_.size()) {
      throw InvalidArgument("session: constraint index out of range");
    }
    if (variable_[index] == 0) {
      throw InvalidArgument(
          "session: keep lists a fixed constraint; call make_variable first");
    }
    kept_ids.push_back(ids_[index]);
  }

  context_.push();
  smt::CheckResult raw;
  std::vector<smt::AssertionId> extra_ids;
  extra_ids.reserve(extras.size());
  try {
    for (const Extra& extra : extras) {
      extra_ids.push_back(context_.assert_term(
          encoding::relation_term(extra.rel, symbols_.symbol(extra.lhs),
                                  symbols_.symbol(extra.rhs)),
          extra.label));
    }
    if (options_.incremental) {
      raw = context_.check(kept_ids, options_.extract_models);
    } else {
      // Ablation path: one flat from-scratch solve over the same set.
      std::vector<smt::AssertionId> subset;
      subset.reserve(ids_.size() + extra_ids.size());
      for (std::size_t i = 0; i < ids_.size(); ++i) {
        if (variable_[i] == 0) subset.push_back(ids_[i]);
      }
      subset.insert(subset.end(), kept_ids.begin(), kept_ids.end());
      subset.insert(subset.end(), extra_ids.begin(), extra_ids.end());
      raw = context_.check_subset(subset);
    }
  } catch (...) {
    context_.pop();
    throw;
  }
  context_.pop();

  Result result;
  result.holds = raw.status == smt::Status::sat;
  if (result.holds) {
    if (options_.extract_models) {
      for (const auto& [symbol, value] : raw.model.values) {
        result.model.values[symbols_.original(symbol)] = value;
      }
    }
  } else {
    for (const smt::AssertionId id : raw.unsat_core) {
      // Base ids are exactly 0..constraint_count-1 (fresh context, asserted
      // first); anything else is one of this check's extras.
      if (id >= 0 && static_cast<std::size_t>(id) < ids_.size()) {
        result.core.push_back(static_cast<std::size_t>(id));
        continue;
      }
      const auto it = std::find(extra_ids.begin(), extra_ids.end(), id);
      if (it != extra_ids.end()) {
        result.extra_core.push_back(
            static_cast<std::size_t>(it - extra_ids.begin()));
      }
    }
  }
  return result;
}

}  // namespace fsr
