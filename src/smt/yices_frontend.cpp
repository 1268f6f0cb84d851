#include "smt/yices_frontend.h"

#include <cctype>

#include "util/error.h"
#include "util/strings.h"

namespace fsr::smt {
namespace {

bool is_integer_literal(std::string_view text) {
  if (text.empty()) return false;
  std::size_t i = (text[0] == '-') ? 1 : 0;
  if (i == text.size()) return false;
  for (; i < text.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) return false;
  }
  return true;
}

/// Splits a Yices binder "name::type" into its two halves.
std::pair<std::string, std::string> split_binding(const std::string& atom) {
  const std::size_t pos = atom.find("::");
  if (pos == std::string::npos || pos == 0 || pos + 2 >= atom.size()) {
    throw InvalidArgument("expected name::type binding, found '" + atom + "'");
  }
  return {atom.substr(0, pos), atom.substr(pos + 2)};
}

/// Parses one expression of the Yices term grammar (atoms, +, -, *, the
/// relations, forall) into a solver term.
Term parse_yices_term(const Sexpr& expr) {
  if (expr.is_atom()) {
    const std::string& spelling = expr.spelling();
    if (is_integer_literal(spelling)) {
      return Term::constant(std::stoll(spelling));
    }
    return Term::variable(spelling);
  }

  if (expr.size() == 0 || !expr.items().front().is_atom()) {
    throw InvalidArgument("malformed term: " + expr.to_string());
  }
  const std::string& op = expr.items().front().spelling();

  if (op == "forall") {
    if (expr.size() != 3) {
      throw InvalidArgument("forall expects binder and body: " +
                            expr.to_string());
    }
    const Sexpr& binder = expr.items()[1];
    if (!binder.is_list() || binder.size() != 1 ||
        !binder.items().front().is_atom()) {
      throw InvalidArgument(
          "forall supports exactly one bound variable (name::type): " +
          expr.to_string());
    }
    const auto [var, type] = split_binding(binder.items().front().spelling());
    (void)type;  // the bound ranges over the positive integers in FSR's use
    return Term::forall_positive(var, parse_yices_term(expr.items()[2]));
  }

  std::vector<Term> args;
  for (std::size_t i = 1; i < expr.size(); ++i) {
    args.push_back(parse_yices_term(expr.items()[i]));
  }
  const auto binary_only = [&](const char* what) {
    if (args.size() != 2) {
      throw InvalidArgument(std::string(what) +
                            " expects two operands: " + expr.to_string());
    }
  };

  if (op == "+") {
    if (args.empty()) {
      throw InvalidArgument("+ expects operands: " + expr.to_string());
    }
    Term acc = std::move(args.front());
    for (std::size_t i = 1; i < args.size(); ++i) {
      acc = Term::add(std::move(acc), std::move(args[i]));
    }
    return acc;
  }
  if (op == "-") {
    binary_only("-");
    return Term::sub(std::move(args[0]), std::move(args[1]));
  }
  if (op == "*") {
    binary_only("*");
    return Term::mul(std::move(args[0]), std::move(args[1]));
  }
  if (op == "<") {
    binary_only("<");
    return Term::lt(std::move(args[0]), std::move(args[1]));
  }
  if (op == "<=") {
    binary_only("<=");
    return Term::le(std::move(args[0]), std::move(args[1]));
  }
  if (op == ">") {
    binary_only(">");
    return Term::gt(std::move(args[0]), std::move(args[1]));
  }
  if (op == ">=") {
    binary_only(">=");
    return Term::ge(std::move(args[0]), std::move(args[1]));
  }
  if (op == "=") {
    binary_only("=");
    return Term::eq(std::move(args[0]), std::move(args[1]));
  }
  throw InvalidArgument("unknown operator '" + op + "' in " + expr.to_string());
}

}  // namespace

const CheckOutcome& ScriptResult::single_check() const {
  if (checks.size() != 1) {
    throw InvalidArgument("script performed " + std::to_string(checks.size()) +
                          " checks, expected exactly 1");
  }
  return checks.front();
}

ScriptResult YicesFrontend::run_script(std::string_view source) {
  ScriptResult result;
  for (const Sexpr& command : parse_sexprs(source)) {
    execute(command, result);
  }
  return result;
}

void YicesFrontend::execute(const Sexpr& command, ScriptResult& result) {
  if (!command.is_list() || command.size() == 0 ||
      !command.items().front().is_atom()) {
    throw InvalidArgument("malformed command: " + command.to_string());
  }
  const std::string& head = command.items().front().spelling();
  if (head == "define-type") {
    execute_define_type(command);
  } else if (head == "define") {
    execute_define(command);
  } else if (head == "assert") {
    execute_assert(command);
  } else if (head == "check") {
    execute_check(result);
  } else if (head == "reset") {
    context_ = Context{};
  } else if (head == "echo") {
    for (std::size_t i = 1; i < command.size(); ++i) {
      result.transcript.push_back(command.items()[i].to_string());
    }
  } else if (util::starts_with(head, "set-")) {
    // Yices housekeeping (set-evidence!, set-verbosity, ...): accepted and
    // ignored; evidence (models, cores) is always produced.
  } else {
    throw InvalidArgument("unknown command '" + head + "'");
  }
}

// (define-type Name (subtype (n::nat) (> n 0)))   -> lower bound 1
// (define-type Name (subtype (n::nat) (>= n c)))  -> lower bound c
// (define-type Name nat)                          -> lower bound 0
// (define-type Name int)                          -> unbounded
void YicesFrontend::execute_define_type(const Sexpr& command) {
  if (command.size() != 3) {
    throw InvalidArgument("define-type expects a name and a definition: " +
                          command.to_string());
  }
  const std::string& name = command.items()[1].spelling();
  const Sexpr& definition = command.items()[2];

  if (definition.is_atom()) {
    const auto it = types_.find(definition.spelling());
    if (it == types_.end()) {
      throw InvalidArgument("unknown base type '" + definition.spelling() +
                            "'");
    }
    types_[name] = it->second;
    return;
  }

  if (!definition.is_call("subtype") || definition.size() != 3) {
    throw InvalidArgument("unsupported type definition: " +
                          definition.to_string());
  }
  const Sexpr& binder = definition.items()[1];
  if (!binder.is_list() || binder.size() != 1 ||
      !binder.items().front().is_atom()) {
    throw InvalidArgument("subtype binder must be (name::base): " +
                          binder.to_string());
  }
  const auto [bound_var, base] = split_binding(binder.items().front().spelling());
  const auto base_it = types_.find(base);
  if (base_it == types_.end()) {
    throw InvalidArgument("unknown base type '" + base + "'");
  }

  // Predicate must be a lower-bound comparison on the bound variable.
  const Sexpr& predicate = definition.items()[2];
  if (!predicate.is_list() || predicate.size() != 3 ||
      !predicate.items()[0].is_atom() || !predicate.items()[1].is_atom() ||
      !predicate.items()[2].is_atom()) {
    throw InvalidArgument("unsupported subtype predicate: " +
                          predicate.to_string());
  }
  const std::string& op = predicate.items()[0].spelling();
  const std::string& var = predicate.items()[1].spelling();
  const std::string& bound_text = predicate.items()[2].spelling();
  if (var != bound_var || !is_integer_literal(bound_text)) {
    throw InvalidArgument("unsupported subtype predicate: " +
                          predicate.to_string());
  }
  const std::int64_t bound = std::stoll(bound_text);
  std::optional<std::int64_t> lower;
  if (op == ">") {
    lower = bound + 1;
  } else if (op == ">=") {
    lower = bound;
  } else {
    throw InvalidArgument(
        "only lower-bound subtype predicates are supported: " +
        predicate.to_string());
  }
  if (base_it->second.has_value() && *base_it->second > *lower) {
    lower = base_it->second;  // subtype cannot weaken the base bound
  }
  types_[name] = lower;
}

// (define C::Sig)
void YicesFrontend::execute_define(const Sexpr& command) {
  if (command.size() != 2 || !command.items()[1].is_atom()) {
    throw InvalidArgument("define expects name::type: " + command.to_string());
  }
  const auto [name, type] = split_binding(command.items()[1].spelling());
  const auto it = types_.find(type);
  if (it == types_.end()) {
    throw InvalidArgument("unknown type '" + type + "' in " +
                          command.to_string());
  }
  context_.declare_variable(name, it->second);
}

void YicesFrontend::execute_assert(const Sexpr& command) {
  if (command.size() != 2) {
    throw InvalidArgument("assert expects one expression: " +
                          command.to_string());
  }
  const Sexpr& body = command.items()[1];
  context_.assert_term(parse_yices_term(body), body.to_string());
}

void YicesFrontend::execute_check(ScriptResult& result) {
  const CheckResult check = context_.check();
  CheckOutcome outcome;
  outcome.status = check.status;
  if (check.status == Status::sat) {
    result.transcript.emplace_back("sat");
    outcome.model = check.model;
    for (const auto& [name, value] : check.model.values) {
      result.transcript.push_back("(= " + name + " " + std::to_string(value) +
                                  ")");
    }
  } else {
    result.transcript.emplace_back("unsat");
    result.transcript.emplace_back("unsat core:");
    outcome.core_ids = check.unsat_core;
    for (const AssertionId id : check.unsat_core) {
      outcome.core_texts.push_back(context_.describe(id));
      result.transcript.push_back("  " + context_.describe(id));
    }
  }
  result.checks.push_back(std::move(outcome));
}

}  // namespace fsr::smt
