// Yices-style textual frontend for the solver.
//
// FSR (Section IV-C) emits constraint scripts in Yices 1.x concrete syntax:
//
//   (define-type Sig (subtype (n::nat) (> n 0)))
//   (define C::Sig) (define P::Sig) (define R::Sig)
//   (assert (< C R)) (assert (< C P)) (assert (= R P))
//   (check)
//
// This frontend executes such scripts against fsr::smt::Context. It is not
// a solve path: the safety analyzer asserts typed terms directly. It
// re-runs the script the analyzer emits (SafetyAnalyzer::emit_yices_script)
// as a referee that the paper artifact means what the analyzer solved, and
// lets users hand-write or post-edit constraint files exactly as they
// would with the original tool.
//
// Supported commands: define-type (subtype over nat / nat / int), define,
// assert, check, reset, echo. Yices housekeeping commands such as
// (set-evidence! true) are accepted and ignored. Unknown commands raise
// fsr::ParseError.
#ifndef FSR_SMT_YICES_FRONTEND_H
#define FSR_SMT_YICES_FRONTEND_H

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "smt/context.h"
#include "smt/sexpr.h"

namespace fsr::smt {

/// The observable result of one (check) command.
struct CheckOutcome {
  Status status = Status::sat;
  Model model;                          // populated when sat
  std::vector<AssertionId> core_ids;    // populated when unsat
  std::vector<std::string> core_texts;  // assertion spellings for the core
};

/// Everything a script run produced: structured outcomes plus a printable
/// transcript (one line per output, in Yices's style: "sat", "unsat",
/// "(= C 1)", "unsat core: ...").
struct ScriptResult {
  std::vector<CheckOutcome> checks;
  std::vector<std::string> transcript;

  /// Convenience for the common single-(check) script.
  const CheckOutcome& single_check() const;
};

class YicesFrontend {
 public:
  /// Parses and executes a whole script.
  ScriptResult run_script(std::string_view source);

  /// Executes one already-parsed command, appending to `result`.
  void execute(const Sexpr& command, ScriptResult& result);

  /// Access to the underlying context (e.g. to retract core members and
  /// re-check, the iterative repair loop of Section IV-B).
  Context& context() noexcept { return context_; }
  const Context& context() const noexcept { return context_; }

 private:
  void execute_define_type(const Sexpr& command);
  void execute_define(const Sexpr& command);
  void execute_assert(const Sexpr& command);
  void execute_check(ScriptResult& result);

  Context context_;
  // Type name -> lower bound (nullopt = unbounded int).
  std::map<std::string, std::optional<std::int64_t>> types_ = {
      {"int", std::nullopt},
      {"nat", std::int64_t{0}},
  };
};

}  // namespace fsr::smt

#endif  // FSR_SMT_YICES_FRONTEND_H
