#include "campaign/cache.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "groundtruth/engine.h"
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace fsr::campaign {
namespace {

void append_path(std::string& out, const spp::Path& path) {
  out += spp::path_name(path);
}

const char* pref_rel_spelling(algebra::PrefRel rel) {
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

}  // namespace

std::string canonical_spp(const spp::SppInstance& instance) {
  std::string out = "dest=" + instance.destination() + ";edges=";
  for (const auto& [u, v] : instance.edges()) {
    out += u + "~" + v + ",";
  }
  out += ";paths=";
  for (const std::string& node : instance.nodes()) {
    out += node + ":";
    for (const spp::Path& path : instance.permitted(node)) {
      append_path(out, path);
      out += ",";
    }
    out += ";";
  }
  return out;
}

std::string canonical_spec(const algebra::SymbolicSpec& spec) {
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

std::string canonical_topology(const topology::Topology& topology) {
  std::string out = "dest=" + topology.destination + ";nodes=";
  for (const std::string& node : topology.nodes) out += node + ",";
  out += ";links=";
  for (const auto& link : topology.links) {
    out += link.u + "~" + link.v + "[" + link.label_uv.to_string() + "/" +
           link.label_vu.to_string() + "]" +
           std::to_string(link.net_config.bandwidth_mbps) + "mbps," +
           std::to_string(link.net_config.latency) + "us," +
           std::to_string(link.net_config.max_jitter) + "j;";
  }
  out += ";domains=";
  for (const auto& [node, domain] : topology.domain_of) {
    out += node + "=" + domain + ",";
  }
  return out;
}

std::string scenario_cache_key(const Scenario& scenario) {
  std::string out = to_string(scenario.kind);
  if (scenario.kind == ScenarioKind::emulation ||
      scenario.kind == ScenarioKind::simulation) {
    // Emulation and simulation outcomes depend on the scenario seed
    // (jitter and batching drift; link delays and churn schedules); safety
    // verdicts do not.
    out += "|seed=" + std::to_string(scenario.seed);
  }
  if (scenario.spp) {
    out += "|spp|" + canonical_spp(*scenario.spp);
  } else if (scenario.algebra) {
    out += "|alg|" + scenario.algebra->name() + "|" +
           canonical_spec(scenario.algebra->symbolic());
    if (scenario.topology) out += "|topo|" + canonical_topology(*scenario.topology);
  } else {
    throw InvalidArgument("scenario '" + scenario.id +
                          "' carries neither an SPP instance nor an algebra");
  }
  return out;
}

std::string scenario_cache_key(const Scenario& scenario,
                               const sim::SimOptions& sim) {
  std::string out = scenario_cache_key(scenario);
  if (scenario.kind == ScenarioKind::simulation) {
    // Every SimOptions knob that shapes a SimResult is keyed; the seed is
    // already in the base key, and the detector (plus its test-only hash
    // mask) is deliberately absent — both detectors are byte-identical (a
    // tested property), so the ablation shares cache entries.
    out += "|sim|scenario=" + sim.scenario +
           ";suppression=" + sim.suppression +
           ";mrai=" + std::to_string(sim.mrai_ticks) +
           ";delay=" + std::to_string(sim.max_link_delay) +
           ";steps=" + std::to_string(sim.max_steps);
  }
  return out;
}

std::string scenario_cache_key(const Scenario& scenario, bool attempt_repair,
                               const repair::RepairOptions& repair,
                               const sim::SimOptions& sim) {
  std::string out = scenario_cache_key(scenario, sim);
  if (attempt_repair && scenario.kind == ScenarioKind::safety &&
      scenario.spp != nullptr) {
    // Repair outcomes are content-determined (ground-truth trials are
    // seeded from the content digest), so the marker carries no seed and
    // duplicate-content scenarios still collapse to one solve. It DOES
    // carry every option that shapes the outcome: the disk cache outlives
    // the process, and a warm run under a different oracle, beam width, or
    // budget must miss, not serve stale verdicts. use_incremental is
    // deliberately absent — both SMT solver strategies produce identical
    // reports unconditionally (a tested property), so that ablation shares
    // cache entries. use_incremental_oracle IS keyed: the oracle paths
    // agree only while no conflict budget dies mid-query (the persistent
    // session's learned clauses can decide instances the scratch encode
    // cannot afford), so cross-strategy sharing could serve a verdict the
    // other strategy would abstain from.
    out += "|repair|gt=";
    out += groundtruth::to_string(repair.ground_truth);
    if (repair.ground_truth == groundtruth::Mode::sat_search) {
      out += repair.use_incremental_oracle ? "/session" : "/scratch";
    }
    out += ";edits=" + std::to_string(repair.max_edits) +
           ";beam=" + std::to_string(repair.beam_width) +
           ";checks=" + std::to_string(repair.max_checks) +
           ";relax=" + (repair.allow_relax ? std::string("1") : "0") +
           ";states=" + std::to_string(repair.ground_truth_max_states) +
           ";conflicts=" + std::to_string(repair.ground_truth_max_conflicts) +
           ";solutions=" + std::to_string(repair.ground_truth_max_solutions) +
           ";spvp=" + std::to_string(repair.spvp_max_activations) + "x" +
           std::to_string(repair.spvp_trials);
  }
  return out;
}

std::string content_digest(const std::string& canonical) {
  std::uint64_t hash = util::fnv1a64(canonical);
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

// ------------------------------------------------------- disk persistence --
//
// One outcome per file, as a versioned line-oriented record: every line is
// "<field> <value>" with backslash/newline escaping, exactly one value per
// line (multi-valued fields write a count line followed by that many value
// lines). The format is append-only versioned: readers reject records
// whose header they do not know, so stale caches degrade to misses.

namespace {

// v6: safety cores come from the one incremental engine, so a strict
// check's core can differ from the one a v5 record holds for the same
// scenario; the bump keeps warm runs equal to cold ones. v5: safety checks
// dropped check.script, the per-check Yices script that
// no response or report renders (SafetyAnalyzer::emit_yices_script renders
// it on demand). v4: the simulation payload gained sim.suppression and
// sim.cutoff (the suppression-policy + budget-cutoff PR), and simulation
// cache keys gained the sim-config marker — the version bump retires every
// v3 sim record, whose keys could alias across sim configurations. v3:
// outcomes gained the simulation payload (has_sim + sim.* fields) and the
// "simulation" kind tag; v2 lacked both. v2: RepairSummary gained
// oracle_budget (the incremental-oracle PR). Records with an older header
// fail the check and degrade to misses.
constexpr const char* k_record_header = "fsr-outcome v6";

std::string escape_value(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string unescape_value(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      out += text[i];
      continue;
    }
    const char next = text[++i];
    out += next == 'n' ? '\n' : next == 'r' ? '\r' : next;
  }
  return out;
}

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);  // round-trips IEEE-754
  return buf;
}

class RecordWriter {
 public:
  void field(const char* name, const std::string& value) {
    out_ += name;
    out_ += ' ';
    out_ += escape_value(value);
    out_ += '\n';
  }
  void field(const char* name, bool value) {
    field(name, std::string(value ? "1" : "0"));
  }
  void field(const char* name, double value) {
    field(name, format_double(value));
  }
  void field(const char* name, std::uint64_t value) {
    field(name, std::to_string(value));
  }
  void field(const char* name, std::int64_t value) {
    field(name, std::to_string(value));
  }

  std::string take() { return std::move(out_); }

 private:
  std::string out_ = std::string(k_record_header) + "\n";
};

/// Sequential reader over "<field> <value>" lines. Every getter checks the
/// expected field name; any mismatch poisons the record (ok() false), so a
/// truncated or corrupted file is rejected as a whole.
class RecordReader {
 public:
  explicit RecordReader(const std::string& text) : stream_(text) {
    std::string header;
    if (!std::getline(stream_, header) || header != k_record_header) {
      ok_ = false;
    }
  }

  bool ok() const noexcept { return ok_; }

  std::string text(const char* name) {
    std::string line;
    if (!ok_ || !std::getline(stream_, line)) {
      ok_ = false;
      return {};
    }
    const std::size_t space = line.find(' ');
    if (space == std::string::npos || line.compare(0, space, name) != 0) {
      ok_ = false;
      return {};
    }
    return unescape_value(line.substr(space + 1));
  }
  bool boolean(const char* name) { return text(name) == "1"; }
  double real(const char* name) {
    const std::string value = text(name);
    return ok_ ? std::strtod(value.c_str(), nullptr) : 0.0;
  }
  std::uint64_t u64(const char* name) {
    const std::string value = text(name);
    return ok_ ? std::strtoull(value.c_str(), nullptr, 10) : 0;
  }
  std::int64_t i64(const char* name) {
    const std::string value = text(name);
    return ok_ ? std::strtoll(value.c_str(), nullptr, 10) : 0;
  }

 private:
  std::istringstream stream_;
  bool ok_ = true;
};

void write_safety(RecordWriter& writer, const SafetyReport& safety) {
  writer.field("safety.verdict",
               std::string(safety.verdict == SafetyVerdict::safe
                               ? "safe"
                               : "not_provably_safe"));
  writer.field("safety.narrative", safety.narrative);
  writer.field("safety.checks", safety.checks.size());
  for (const MonotonicityReport& check : safety.checks) {
    writer.field("check.algebra", check.algebra_name);
    writer.field("check.mode",
                 std::string(check.mode == MonotonicityMode::strict
                                 ? "strict"
                                 : "plain"));
    writer.field("check.holds", check.holds);
    writer.field("check.pref", check.preference_constraint_count);
    writer.field("check.mono", check.monotonicity_constraint_count);
    writer.field("check.solve_ms", check.solve_time_ms);
    writer.field("check.model", check.model.values.size());
    for (const auto& [name, value] : check.model.values) {
      writer.field("model.name", name);
      writer.field("model.value", value);
    }
    writer.field("check.core", check.unsat_core.size());
    for (const ConstraintProvenance& entry : check.unsat_core) {
      writer.field("core.kind",
                   std::string(entry.kind ==
                                       ConstraintProvenance::Kind::preference
                                   ? "preference"
                                   : "monotonicity"));
      writer.field("core.desc", entry.description);
      writer.field("core.constraint", entry.constraint);
    }
  }
}

bool read_safety(RecordReader& reader, SafetyReport& safety) {
  const std::string verdict = reader.text("safety.verdict");
  safety.verdict = verdict == "safe" ? SafetyVerdict::safe
                                     : SafetyVerdict::not_provably_safe;
  safety.narrative = reader.text("safety.narrative");
  const std::uint64_t checks = reader.u64("safety.checks");
  if (!reader.ok() || checks > 1u << 16) return false;
  safety.checks.resize(checks);
  for (MonotonicityReport& check : safety.checks) {
    check.algebra_name = reader.text("check.algebra");
    check.mode = reader.text("check.mode") == "strict"
                     ? MonotonicityMode::strict
                     : MonotonicityMode::plain;
    check.holds = reader.boolean("check.holds");
    check.preference_constraint_count =
        static_cast<std::size_t>(reader.u64("check.pref"));
    check.monotonicity_constraint_count =
        static_cast<std::size_t>(reader.u64("check.mono"));
    check.solve_time_ms = reader.real("check.solve_ms");
    const std::uint64_t model_entries = reader.u64("check.model");
    if (!reader.ok() || model_entries > 1u << 20) return false;
    for (std::uint64_t i = 0; i < model_entries; ++i) {
      const std::string name = reader.text("model.name");
      check.model.values[name] = reader.i64("model.value");
    }
    const std::uint64_t core_entries = reader.u64("check.core");
    if (!reader.ok() || core_entries > 1u << 20) return false;
    check.unsat_core.resize(core_entries);
    for (ConstraintProvenance& entry : check.unsat_core) {
      entry.kind = reader.text("core.kind") == "preference"
                       ? ConstraintProvenance::Kind::preference
                       : ConstraintProvenance::Kind::monotonicity;
      entry.description = reader.text("core.desc");
      entry.constraint = reader.text("core.constraint");
    }
  }
  return reader.ok();
}

void write_emulation(RecordWriter& writer, const EmulationResult& emu) {
  writer.field("emu.quiesced", emu.quiesced);
  writer.field("emu.convergence", static_cast<std::int64_t>(emu.convergence_time));
  writer.field("emu.end", static_cast<std::int64_t>(emu.end_time));
  writer.field("emu.messages", emu.messages);
  writer.field("emu.bytes", emu.bytes);
  writer.field("emu.route_changes", emu.route_changes);
  writer.field("emu.nodes", emu.node_count);
  writer.field("emu.stats_bucket", static_cast<std::int64_t>(emu.stats_bucket));
  writer.field("emu.series", emu.bandwidth_series_mbps.size());
  for (const double value : emu.bandwidth_series_mbps) {
    writer.field("series", value);
  }
  writer.field("emu.routes", emu.best_routes.size());
  for (const auto& [node, route] : emu.best_routes) {
    writer.field("route.node", node);
    writer.field("route.sig", route.first);
    writer.field("route.hops", route.second.size());
    for (const std::string& hop : route.second) {
      writer.field("hop", hop);
    }
  }
}

bool read_emulation(RecordReader& reader, EmulationResult& emu) {
  emu.quiesced = reader.boolean("emu.quiesced");
  emu.convergence_time = reader.i64("emu.convergence");
  emu.end_time = reader.i64("emu.end");
  emu.messages = reader.u64("emu.messages");
  emu.bytes = reader.u64("emu.bytes");
  emu.route_changes = reader.u64("emu.route_changes");
  emu.node_count = static_cast<std::size_t>(reader.u64("emu.nodes"));
  emu.stats_bucket = reader.i64("emu.stats_bucket");
  const std::uint64_t series = reader.u64("emu.series");
  if (!reader.ok() || series > 1u << 24) return false;
  emu.bandwidth_series_mbps.resize(series);
  for (double& value : emu.bandwidth_series_mbps) {
    value = reader.real("series");
  }
  const std::uint64_t routes = reader.u64("emu.routes");
  if (!reader.ok() || routes > 1u << 20) return false;
  for (std::uint64_t i = 0; i < routes; ++i) {
    const std::string node = reader.text("route.node");
    const std::string sig = reader.text("route.sig");
    const std::uint64_t hops = reader.u64("route.hops");
    if (!reader.ok() || hops > 1u << 16) return false;
    std::vector<std::string> path(hops);
    for (std::string& hop : path) hop = reader.text("hop");
    emu.best_routes[node] = {sig, std::move(path)};
  }
  return reader.ok();
}

void write_sim(RecordWriter& writer, const sim::SimResult& sim_result) {
  writer.field("sim.scenario", sim_result.scenario);
  writer.field("sim.suppression", sim_result.suppression);
  writer.field("sim.converged", sim_result.converged);
  writer.field("sim.oscillating", sim_result.oscillating);
  writer.field("sim.cutoff", sim_result.cutoff);
  writer.field("sim.steps", sim_result.steps);
  writer.field("sim.ticks", sim_result.ticks);
  writer.field("sim.messages", sim_result.messages);
  writer.field("sim.route_changes", sim_result.route_changes);
  writer.field("sim.convergence_tick", sim_result.convergence_tick);
  writer.field("sim.cycle_length", sim_result.cycle_length);
  writer.field("sim.stable", sim_result.fixed_point_stable);
  writer.field("sim.assignment", sim_result.final_assignment.size());
  for (const auto& [node, path] : sim_result.final_assignment) {
    writer.field("assign.node", node);
    writer.field("assign.hops", path.size());
    for (const std::string& hop : path) writer.field("hop", hop);
  }
}

bool read_sim(RecordReader& reader, sim::SimResult& sim_result) {
  sim_result.scenario = reader.text("sim.scenario");
  sim_result.suppression = reader.text("sim.suppression");
  sim_result.converged = reader.boolean("sim.converged");
  sim_result.oscillating = reader.boolean("sim.oscillating");
  sim_result.cutoff = reader.boolean("sim.cutoff");
  sim_result.steps = reader.u64("sim.steps");
  sim_result.ticks = reader.u64("sim.ticks");
  sim_result.messages = reader.u64("sim.messages");
  sim_result.route_changes = reader.u64("sim.route_changes");
  sim_result.convergence_tick = reader.u64("sim.convergence_tick");
  sim_result.cycle_length = reader.u64("sim.cycle_length");
  sim_result.fixed_point_stable = reader.boolean("sim.stable");
  const std::uint64_t entries = reader.u64("sim.assignment");
  if (!reader.ok() || entries > 1u << 20) return false;
  for (std::uint64_t i = 0; i < entries; ++i) {
    const std::string node = reader.text("assign.node");
    const std::uint64_t hops = reader.u64("assign.hops");
    if (!reader.ok() || hops > 1u << 16) return false;
    spp::Path path(hops);
    for (std::string& hop : path) hop = reader.text("hop");
    sim_result.final_assignment[node] = std::move(path);
  }
  return reader.ok();
}

void write_repair(RecordWriter& writer, const repair::RepairSummary& repair) {
  writer.field("repair.attempted", repair.attempted);
  writer.field("repair.solver_repaired", repair.solver_repaired);
  writer.field("repair.verified", repair.verified);
  writer.field("repair.gt_mode", repair.ground_truth_mode);
  writer.field("repair.oracle_budget", repair.oracle_budget);
  writer.field("repair.edit_count", repair.edit_count);
  writer.field("repair.edits", repair.edits.size());
  for (const std::string& edit : repair.edits) {
    writer.field("edit", edit);
  }
  writer.field("repair.candidates", repair.candidates_checked);
  writer.field("repair.checks", repair.solver_checks);
  writer.field("repair.error", repair.error);
}

bool read_repair(RecordReader& reader, repair::RepairSummary& repair) {
  repair.attempted = reader.boolean("repair.attempted");
  repair.solver_repaired = reader.boolean("repair.solver_repaired");
  repair.verified = reader.boolean("repair.verified");
  repair.ground_truth_mode = reader.text("repair.gt_mode");
  repair.oracle_budget = reader.text("repair.oracle_budget");
  repair.edit_count = static_cast<std::size_t>(reader.u64("repair.edit_count"));
  const std::uint64_t edits = reader.u64("repair.edits");
  if (!reader.ok() || edits > 1u << 16) return false;
  repair.edits.resize(edits);
  for (std::string& edit : repair.edits) edit = reader.text("edit");
  repair.candidates_checked =
      static_cast<std::size_t>(reader.u64("repair.candidates"));
  repair.solver_checks = static_cast<std::size_t>(reader.u64("repair.checks"));
  repair.error = reader.text("repair.error");
  return reader.ok();
}

}  // namespace

std::string serialize_outcome(const ScenarioOutcome& outcome) {
  RecordWriter writer;
  writer.field("kind", std::string(to_string(outcome.kind)));
  writer.field("error", outcome.error);
  writer.field("wall_ms", outcome.wall_ms);
  writer.field("has_safety", outcome.safety.has_value());
  if (outcome.safety.has_value()) write_safety(writer, *outcome.safety);
  writer.field("has_emulation", outcome.emulation.has_value());
  if (outcome.emulation.has_value()) {
    write_emulation(writer, *outcome.emulation);
  }
  writer.field("has_sim", outcome.sim.has_value());
  if (outcome.sim.has_value()) write_sim(writer, *outcome.sim);
  writer.field("has_repair", outcome.repair.has_value());
  if (outcome.repair.has_value()) write_repair(writer, *outcome.repair);
  return writer.take();
}

std::shared_ptr<const ScenarioOutcome> deserialize_outcome(
    const std::string& text) {
  RecordReader reader(text);
  auto outcome = std::make_shared<ScenarioOutcome>();
  const std::string kind = reader.text("kind");
  outcome->kind = kind == "emulation"    ? ScenarioKind::emulation
                  : kind == "simulation" ? ScenarioKind::simulation
                                         : ScenarioKind::safety;
  outcome->error = reader.text("error");
  outcome->wall_ms = reader.real("wall_ms");
  if (reader.boolean("has_safety")) {
    SafetyReport safety;
    if (!read_safety(reader, safety)) return nullptr;
    outcome->safety = std::move(safety);
  }
  if (reader.boolean("has_emulation")) {
    EmulationResult emulation;
    if (!read_emulation(reader, emulation)) return nullptr;
    outcome->emulation = std::move(emulation);
  }
  if (reader.boolean("has_sim")) {
    sim::SimResult sim_result;
    if (!read_sim(reader, sim_result)) return nullptr;
    outcome->sim = std::move(sim_result);
  }
  if (reader.boolean("has_repair")) {
    repair::RepairSummary repair;
    if (!read_repair(reader, repair)) return nullptr;
    outcome->repair = std::move(repair);
  }
  return reader.ok() ? outcome : nullptr;
}

namespace {

/// The sweep-order stamp of a record file, in file-clock ticks (the same
/// clock touch uses, so loaded stamps and in-process accesses interleave
/// correctly).
std::int64_t file_stamp(const std::filesystem::path& path) {
  std::error_code ec;
  const auto time = std::filesystem::last_write_time(path, ec);
  return ec ? 0 : time.time_since_epoch().count();
}

std::int64_t file_stamp_now() {
  return std::filesystem::file_time_type::clock::now()
      .time_since_epoch()
      .count();
}

}  // namespace

ResultCache::ResultCache(std::string directory, std::uint64_t max_bytes)
    : directory_(std::move(directory)), max_bytes_(max_bytes) {
  if (!directory_.empty()) {
    load_directory();
    const std::lock_guard<std::mutex> lock(mutex_);
    sweep_locked();
  }
}

void ResultCache::load_directory() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) return;  // unwritable: behave as an in-memory cache
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (ec) break;
    if (!entry.is_regular_file() || entry.path().extension() != ".outcome") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in) continue;
    std::ostringstream text;
    text << in.rdbuf();
    const std::string record = text.str();
    // A record under another format version is a miss. The first line
    // after the header names the full cache key, so digest collisions (two
    // keys, one file name) load as the stored key only.
    const std::size_t header_end = record.find('\n');
    if (header_end == std::string::npos ||
        record.compare(0, header_end, k_record_header) != 0) {
      continue;
    }
    const std::string body = record.substr(header_end + 1);
    const std::size_t key_end = body.find('\n');
    if (key_end == std::string::npos ||
        body.compare(0, 4, "key ") != 0) {
      continue;
    }
    const std::string key = unescape_value(body.substr(4, key_end - 4));
    const std::string payload =
        std::string(k_record_header) + "\n" + body.substr(key_end + 1);
    auto outcome = deserialize_outcome(payload);
    if (outcome == nullptr) continue;
    entries_.emplace(key, std::move(outcome));
    const std::string digest = entry.path().stem().string();
    digest_of_key_.emplace(key, digest);
    DiskRecord disk_record;
    disk_record.bytes = record.size();
    disk_record.last_access = file_stamp(entry.path());
    disk_bytes_ += disk_record.bytes;
    disk_records_.emplace(digest, std::move(disk_record));
  }
}

void ResultCache::sweep_locked() {
  namespace fs = std::filesystem;
  if (max_bytes_ == 0) return;
  // A single over-sized record survives alone: deleting the only entry
  // would leave an empty cache that serves nothing at all.
  while (disk_bytes_ > max_bytes_ && disk_records_.size() > 1) {
    auto oldest = disk_records_.begin();
    for (auto it = disk_records_.begin(); it != disk_records_.end(); ++it) {
      if (it->second.last_access < oldest->second.last_access) oldest = it;
    }
    std::error_code ec;
    fs::remove(fs::path(directory_) / (oldest->first + ".outcome"), ec);
    disk_bytes_ -= oldest->second.bytes;
    ++evicted_files_;
    static obs::Counter& evicted_counter =
        obs::registry().counter("result_cache.evicted_files");
    evicted_counter.add(1);
    static obs::Gauge& bytes_gauge =
        obs::registry().gauge("result_cache.disk_bytes");
    bytes_gauge.set(static_cast<std::int64_t>(disk_bytes_));
    disk_records_.erase(oldest);
  }
}

std::int64_t ResultCache::next_stamp_locked() {
  access_clock_ = std::max(file_stamp_now(), access_clock_ + 1);
  return access_clock_;
}

void ResultCache::touch_locked(const std::string& digest) {
  const auto it = disk_records_.find(digest);
  if (it == disk_records_.end()) return;
  it->second.last_access = next_stamp_locked();
  // Persist the recency so the NEXT process's sweep order sees this
  // access too (best-effort; a read-only directory costs nothing).
  std::error_code ec;
  std::filesystem::last_write_time(
      std::filesystem::path(directory_) / (digest + ".outcome"),
      std::filesystem::file_time_type::clock::now(), ec);
}

std::shared_ptr<const ScenarioOutcome> ResultCache::find(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    static obs::Counter& miss_counter =
        obs::registry().counter("result_cache.misses");
    miss_counter.add(1);
    return nullptr;
  }
  ++hits_;
  static obs::Counter& hit_counter =
      obs::registry().counter("result_cache.hits");
  hit_counter.add(1);
  // Recency bookkeeping (and its per-hit metadata write) only matters to
  // the size-cap sweep; an uncapped cache keeps find() memory-only.
  if (!directory_.empty() && max_bytes_ != 0) {
    const auto digest_it = digest_of_key_.find(key);
    if (digest_it != digest_of_key_.end()) touch_locked(digest_it->second);
  }
  return it->second;
}

void ResultCache::insert(const std::string& key,
                         std::shared_ptr<const ScenarioOutcome> outcome) {
  std::shared_ptr<const ScenarioOutcome> to_persist;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = entries_.emplace(key, std::move(outcome));
    if (!inserted || directory_.empty()) return;
    to_persist = it->second;
  }
  // Serialization and disk I/O happen outside the lock: outcomes are
  // immutable once inserted, and first-insertion-wins means only the
  // inserting caller reaches this point for a given key — so concurrent
  // workers' find()/insert() never stall on a slow filesystem.

  // Persist as <digest>.outcome with the full key recorded inside (see
  // load_directory); write-to-temp-then-rename keeps concurrent readers of
  // the directory from ever seeing a torn record.
  namespace fs = std::filesystem;
  const std::string record = serialize_outcome(*to_persist);
  const std::size_t header_end = record.find('\n');
  if (header_end == std::string::npos) return;
  std::string with_key = record.substr(0, header_end + 1);
  with_key += "key " + escape_value(key) + "\n";
  with_key += record.substr(header_end + 1);

  // The temp name is unique per process AND per write (pid + counter):
  // concurrent processes (or runners) sharing one cache directory must
  // never interleave writes into the same temp file, or the atomic-rename
  // guarantee would publish a torn record.
  static std::atomic<std::uint64_t> write_counter{0};
  const fs::path final_path =
      fs::path(directory_) / (content_digest(key) + ".outcome");
  const fs::path temp_path =
      fs::path(directory_) /
      (content_digest(key) + ".tmp." + std::to_string(::getpid()) + "." +
       std::to_string(write_counter.fetch_add(1)));
  std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
  if (!out) return;  // best-effort: unwritable directory degrades gracefully
  out << with_key;
  out.close();
  if (!out) return;
  std::error_code ec;
  fs::rename(temp_path, final_path, ec);
  if (ec) {
    fs::remove(temp_path, ec);
    return;
  }

  // Record the new file and enforce the size cap. The freshly written
  // record is stamped now, so the sweep sheds older (least recently
  // accessed) files first.
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string digest = content_digest(key);
  digest_of_key_.emplace(key, digest);
  const auto [record_it, record_inserted] =
      disk_records_.emplace(digest, DiskRecord{});
  if (record_inserted) {
    record_it->second.bytes = with_key.size();
    disk_bytes_ += with_key.size();
    static obs::Gauge& bytes_gauge =
        obs::registry().gauge("result_cache.disk_bytes");
    bytes_gauge.set(static_cast<std::int64_t>(disk_bytes_));
  }
  record_it->second.last_access = next_stamp_locked();
  sweep_locked();
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t ResultCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t ResultCache::disk_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return disk_bytes_;
}

std::uint64_t ResultCache::evicted_files() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evicted_files_;
}

}  // namespace fsr::campaign
