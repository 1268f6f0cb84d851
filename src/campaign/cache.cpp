#include "campaign/cache.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/json.h"
#include "campaign/report.h"
#include "groundtruth/engine.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace fsr::campaign {

std::string scenario_cache_key(const Scenario& scenario,
                               const api::CompiledRequest& primary,
                               bool attempt_repair,
                               const repair::RepairOptions& repair,
                               const sim::SimOptions& sim) {
  if (primary.canonical().empty()) {
    throw InvalidArgument("scenario '" + scenario.id +
                          "' carries neither an SPP instance nor an algebra");
  }
  std::string out = to_string(scenario.kind);
  if (scenario.kind == ScenarioKind::emulation ||
      scenario.kind == ScenarioKind::simulation) {
    // Emulation and simulation outcomes depend on the scenario seed
    // (jitter and batching drift; link delays and churn schedules); safety
    // verdicts do not.
    out += "|seed=" + std::to_string(scenario.seed);
  }
  // An algebra payload's canonical text starts "alg|".
  out += scenario.spp != nullptr ? "|spp|" : "|";
  out += primary.canonical();
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
  if (attempt_repair && scenario.kind == ScenarioKind::safety &&
      scenario.spp != nullptr) {
    // Repair outcomes are a pure function of the instance (the search and
    // its exact oracle draw no randomness), so the marker carries no seed
    // and duplicate-content scenarios still collapse to one solve. It DOES
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
           ";solutions=" + std::to_string(repair.ground_truth_max_solutions);
  }
  return out;
}

// ------------------------------------------------------- disk persistence --
//
// One outcome per file: a header line naming the format version, then one
// JSON object holding the full cache key, the outcome's report fields
// (append_outcome_json) and wall_ms. Readers reject records whose header
// they do not know, so stale caches degrade to misses.

namespace {

// v7: the record is the report's own outcome JSON; models, narratives,
// emulation series and routes, simulation fixed points and core
// constraint texts are no longer stored. v6: safety cores come from the
// one incremental engine, so a strict check's core can differ from the
// one a v5 record holds for the same scenario. v5: safety checks dropped
// the per-check Yices script. v4: the simulation payload gained its
// suppression policy and budget cutoff, and simulation cache keys gained
// the sim-config marker. v3: outcomes gained the simulation payload. v2:
// RepairSummary gained oracle_budget. Records with another header fail
// the check and degrade to misses.
constexpr const char* k_record_header = "fsr-outcome v7";

using api::json::Value;

std::string encode_record(const std::string& key,
                          const ScenarioOutcome& outcome) {
  std::string out = k_record_header;
  out += "\n{\"key\": " + util::json_quoted(key);
  append_outcome_json(out, outcome);
  char wall_ms[64];
  std::snprintf(wall_ms, sizeof(wall_ms), "%.17g", outcome.wall_ms);
  out += ", \"wall_ms\": ";
  out += wall_ms;  // %.17g round-trips IEEE-754
  out += "}\n";
  return out;
}

const Value& field(const Value& object, const char* name) {
  const Value* value = object.find(name);
  if (value == nullptr) {
    throw InvalidArgument(std::string("record lacks ") + name);
  }
  return *value;
}

std::string optional_text(const Value& object, const char* name) {
  const Value* value = object.find(name);
  return value == nullptr ? std::string() : value->as_string(name);
}

/// True for `yes`, false for `no`; any other spelling is a malformed
/// record.
bool either(const std::string& text, const char* yes, const char* no) {
  if (text == yes) return true;
  if (text == no) return false;
  throw InvalidArgument("record has unknown value '" + text + "'");
}

SafetyReport read_safety(const std::string& verdict, const Value& checks) {
  SafetyReport safety;
  safety.verdict = either(verdict, "safe", "not_provably_safe")
                       ? SafetyVerdict::safe
                       : SafetyVerdict::not_provably_safe;
  for (const Value& item : checks.as_array("checks")) {
    MonotonicityReport check;
    check.algebra_name = field(item, "algebra").as_string("algebra");
    check.mode = either(field(item, "mode").as_string("mode"), "strict",
                        "plain")
                     ? MonotonicityMode::strict
                     : MonotonicityMode::plain;
    check.holds = field(item, "holds").as_bool("holds");
    check.preference_constraint_count =
        field(item, "preference_constraints").as_u64("preference_constraints");
    check.monotonicity_constraint_count =
        field(item, "monotonicity_constraints")
            .as_u64("monotonicity_constraints");
    if (const Value* core = item.find("core")) {
      for (const Value& entry : core->as_array("core")) {
        ConstraintProvenance member;
        member.description = entry.as_string("core");
        check.unsat_core.push_back(std::move(member));
      }
    }
    safety.checks.push_back(std::move(check));
  }
  return safety;
}

repair::RepairSummary read_repair(const Value& block) {
  repair::RepairSummary repair;
  repair.attempted = true;  // the runner stores attempted summaries only
  repair.solver_repaired = field(block, "solver_repaired").as_bool("repair");
  repair.verified = field(block, "verified").as_bool("repair");
  repair.ground_truth_mode = optional_text(block, "ground_truth_mode");
  repair.oracle_budget = optional_text(block, "oracle_budget");
  repair.edit_count = field(block, "edit_count").as_u64("edit_count");
  for (const Value& edit : field(block, "edits").as_array("edits")) {
    repair.edits.push_back(edit.as_string("edit"));
  }
  repair.candidates_checked = field(block, "candidates").as_u64("candidates");
  repair.solver_checks = field(block, "checks").as_u64("checks");
  repair.error = optional_text(block, "error");
  return repair;
}

// A campaign outcome carries at most one of a simulation and an emulation
// (a scenario has one kind), so their shared field names ("messages",
// "route_changes") are unambiguous in the record.
sim::SimResult read_sim(const std::string& verdict, const Value& record) {
  sim::SimResult sim;
  sim.converged = verdict == "converged";
  sim.oscillating = verdict == "oscillating";
  sim.cutoff = verdict == "cutoff";
  if (!sim.converged && !sim.oscillating && !sim.cutoff) {
    throw InvalidArgument("record has unknown simulation verdict");
  }
  sim.scenario = field(record, "sim_scenario").as_string("sim_scenario");
  sim.suppression =
      field(record, "sim_suppression").as_string("sim_suppression");
  sim.steps = field(record, "steps").as_u64("steps");
  sim.ticks = field(record, "ticks").as_u64("ticks");
  sim.messages = field(record, "messages").as_u64("messages");
  sim.route_changes = field(record, "route_changes").as_u64("route_changes");
  if (sim.converged) {
    sim.convergence_tick =
        field(record, "convergence_tick").as_u64("convergence_tick");
    sim.fixed_point_stable =
        field(record, "fixed_point_stable").as_bool("fixed_point_stable");
  }
  if (sim.oscillating) {
    sim.cycle_length = field(record, "cycle_length").as_u64("cycle_length");
  }
  return sim;
}

EmulationResult read_emulation(const std::string& verdict,
                               const Value& record) {
  EmulationResult emu;
  emu.quiesced = either(verdict, "converged", "diverged");
  emu.convergence_time = static_cast<net::Time>(
      field(record, "convergence_time_us").as_u64("convergence_time_us"));
  emu.end_time = static_cast<net::Time>(
      field(record, "end_time_us").as_u64("end_time_us"));
  emu.messages = field(record, "messages").as_u64("messages");
  emu.bytes = field(record, "bytes").as_u64("bytes");
  emu.route_changes = field(record, "route_changes").as_u64("route_changes");
  emu.node_count = field(record, "nodes").as_u64("nodes");
  return emu;
}

/// Decodes a record, storing its cache key in `key` when non-null.
/// Returns nullptr on any malformed input; never throws.
std::shared_ptr<const ScenarioOutcome> decode_record(const std::string& text,
                                                     std::string* key) {
  const std::size_t header_end = text.find('\n');
  if (header_end == std::string::npos ||
      text.compare(0, header_end, k_record_header) != 0) {
    return nullptr;
  }
  try {
    const Value record = api::json::parse(text.substr(header_end + 1));
    auto outcome = std::make_shared<ScenarioOutcome>();
    const std::string& stored_key = field(record, "key").as_string("key");
    outcome->wall_ms = field(record, "wall_ms").as_number("wall_ms");
    // Each payload block opens right after the verdict it renders with, so
    // the members are read in order, remembering the latest verdict. The
    // readers reject the empty verdict a block without one would get.
    const std::string no_verdict;
    const std::string* verdict = &no_verdict;
    for (const auto& [name, value] : record.as_object("record")) {
      if (name == "verdict") {
        verdict = &value.as_string("verdict");
      } else if (name == "error") {
        outcome->error = value.as_string("error");
      } else if (name == "checks") {
        outcome->safety = read_safety(*verdict, value);
      } else if (name == "repair") {
        outcome->repair = read_repair(value);
      } else if (name == "sim_scenario") {
        outcome->sim = read_sim(*verdict, record);
      } else if (name == "convergence_time_us") {
        outcome->emulation = read_emulation(*verdict, record);
      }
    }
    if (key != nullptr) *key = stored_key;
    return outcome;
  } catch (const std::exception&) {
    return nullptr;
  }
}

}  // namespace

std::string serialize_outcome(const ScenarioOutcome& outcome) {
  return encode_record(std::string(), outcome);
}

std::shared_ptr<const ScenarioOutcome> deserialize_outcome(
    const std::string& text) {
  return decode_record(text, nullptr);
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
    // A record under another format version, or one that does not decode,
    // is a miss. The record names its full cache key, so digest collisions
    // (two keys, one file name) load as the stored key only.
    std::string key;
    auto outcome = decode_record(record, &key);
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
  const std::string record = encode_record(key, *to_persist);
  const std::string digest = util::content_digest(key);

  // The temp name is unique per process AND per write (pid + counter):
  // concurrent processes (or runners) sharing one cache directory must
  // never interleave writes into the same temp file, or the atomic-rename
  // guarantee would publish a torn record.
  static std::atomic<std::uint64_t> write_counter{0};
  const fs::path final_path = fs::path(directory_) / (digest + ".outcome");
  const fs::path temp_path =
      fs::path(directory_) /
      (digest + ".tmp." + std::to_string(::getpid()) + "." +
       std::to_string(write_counter.fetch_add(1)));
  std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
  if (!out) return;  // best-effort: unwritable directory degrades gracefully
  out << record;
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
  digest_of_key_.emplace(key, digest);
  const auto [record_it, record_inserted] =
      disk_records_.emplace(digest, DiskRecord{});
  if (record_inserted) {
    record_it->second.bytes = record.size();
    disk_bytes_ += record.size();
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
