// Content-addressed result cache for campaign scenarios.
//
// Scenarios generated by sweeps frequently repeat the same underlying
// problem (the same gadget reached from two sources, the same extracted
// iBGP instance under two parameter settings). The cache keys outcomes by
// a scenario's *content* — the canonical form of the SPP instance,
// symbolic spec, or annotated topology it actually solves, as its
// compiled primary request carries it (api::CompiledRequest::canonical),
// never its display name — so duplicated work is solved once per
// campaign and reused across campaigns sharing a runner.
//
// Persistence: constructed with a directory, the cache reloads every
// previously stored outcome at startup and writes each insertion back as
// one content-addressed file, <content_digest(key)>.outcome. A record is
// a version header line followed by one JSON object: the full cache key
// (checked on load, so two keys that share a digest never alias), the
// outcome's fields exactly as the campaign report renders them
// (append_outcome_json), and wall_ms in %.17g, so the --timings histogram
// and slowest-scenario order round-trip exactly. Nothing the report does
// not read is stored: no models, narratives, bandwidth series, best
// routes or fixed points. A warm run's report is therefore byte-identical
// to the cold run that populated the directory. Unreadable,
// version-mismatched, malformed or colliding files are ignored — a disk
// cache miss only costs a re-solve.
//
// Thread-safety: find/insert are internally synchronized; the runner's
// workers share one cache instance.
#ifndef FSR_CAMPAIGN_CACHE_H
#define FSR_CAMPAIGN_CACHE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "api/request.h"
#include "campaign/scenario.h"

namespace fsr::campaign {

/// Full cache key of a scenario whose primary request compiled to
/// `primary` (api::compile; the key reuses its canonical payload text,
/// so the content is canonicalised once per scenario). The key is the
/// kind tag; "|seed=<seed>" for emulations and simulations, whose results
/// are seed-dependent (safety verdicts are not); then "|spp|" + the
/// canonical text for an SPP payload, or "|" + it for an algebra payload
/// ("alg|<name>|<spec>", plus "|topo|<topology>" for emulations). Two
/// markers follow:
///   * simulation scenarios get a sim marker embedding every SimOptions
///     field that shapes a SimResult (churn scenario, suppression policy,
///     MRAI window, link-delay bound, step budget) — with the cache
///     persisted across processes, a warm run under a different
///     --sim-scenario or --sim-mrai must miss, not serve a stale verdict
///     keyed by seed alone. The detector choice and its test-only hash
///     mask are deliberately absent: both detectors produce
///     byte-identical SimResults (a tested property), so the detector
///     ablation shares cache entries;
///   * with `attempt_repair`, a repair-eligible scenario (SPP safety)
///     gets a repair marker, so outcomes with and without repair data
///     never alias. It embeds every RepairOptions field that shapes a
///     repair outcome (oracle mode, edit and check budgets, relax switch,
///     oracle budgets), so two runs differing only in --ground-truth never
///     serve each other's outcomes. It stays seed-free: repair draws no
///     randomness, so content dedup keeps collapsing duplicates.
/// A malformed primary (one the service answers with an error) keys by
/// the payload it does carry. Throws fsr::InvalidArgument when the
/// scenario carries no payload at all.
std::string scenario_cache_key(const Scenario& scenario,
                               const api::CompiledRequest& primary,
                               bool attempt_repair = false,
                               const repair::RepairOptions& repair = {},
                               const sim::SimOptions& sim = {});

/// Serialises `outcome` as the versioned record the disk cache stores,
/// under an empty key (exposed for tests and external tooling).
std::string serialize_outcome(const ScenarioOutcome& outcome);

/// Parses a record produced by serialize_outcome, filling the fields the
/// report and render_table read. Returns nullptr on any syntax error,
/// missing or mistyped field, or version mismatch (never throws on bad
/// bytes).
std::shared_ptr<const ScenarioOutcome> deserialize_outcome(
    const std::string& text);

class ResultCache {
 public:
  /// Empty `directory`: plain in-memory cache. Otherwise disk-backed:
  /// loads every readable entry under `directory` (created if absent) and
  /// persists each insert() back to it.
  ///
  /// `max_bytes` (disk-backed only, 0 = unbounded) caps the directory's
  /// total record bytes: whenever an insertion (or the startup load)
  /// overflows the cap, the least recently ACCESSED record files are
  /// deleted until the total fits — so a long-lived shared cache keeps its
  /// hot set and sheds cold history. Access recency is persisted in each
  /// record file's timestamp: find() hits touch the file (atime is
  /// unreliable under relatime/noatime mounts, so the cache maintains the
  /// write timestamp itself), and the startup order comes from the same
  /// stamp. An UNCAPPED cache skips that per-hit metadata write — find()
  /// stays memory-only, as before the sweep existed. Eviction only
  /// deletes FILES — outcomes already loaded this run stay served from
  /// memory; the next process simply reloads less.
  explicit ResultCache(std::string directory = {},
                       std::uint64_t max_bytes = 0);

  /// Returns the cached outcome for `key`, or nullptr (counts a hit/miss).
  std::shared_ptr<const ScenarioOutcome> find(const std::string& key);

  /// Inserts `outcome` for `key`; first insertion wins. Disk-backed
  /// caches also write the entry's file (best-effort: an unwritable
  /// directory degrades to in-memory behaviour).
  void insert(const std::string& key,
              std::shared_ptr<const ScenarioOutcome> outcome);

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  const std::string& directory() const noexcept { return directory_; }
  /// Total bytes of record files currently on disk (disk-backed only).
  std::uint64_t disk_bytes() const;
  /// Record files deleted by the size-cap sweep so far.
  std::uint64_t evicted_files() const;

 private:
  struct DiskRecord {
    std::uint64_t bytes = 0;
    std::int64_t last_access = 0;  // sweep order; see touch()
  };

  void load_directory();
  /// Deletes least-recently-accessed record files until the total fits
  /// max_bytes_. Caller holds mutex_.
  void sweep_locked();
  /// Marks `digest`'s record as just-accessed (bookkeeping + file stamp).
  /// Caller holds mutex_.
  void touch_locked(const std::string& digest);
  /// A strictly increasing access stamp: wall clock when it advances,
  /// last-stamp-plus-one when it does not (so same-tick accesses still
  /// order deterministically within a process). Caller holds mutex_.
  std::int64_t next_stamp_locked();

  mutable std::mutex mutex_;
  std::string directory_;  // empty: in-memory only
  std::uint64_t max_bytes_ = 0;
  std::unordered_map<std::string, std::shared_ptr<const ScenarioOutcome>>
      entries_;
  std::unordered_map<std::string, std::string> digest_of_key_;
  std::unordered_map<std::string, DiskRecord> disk_records_;  // by digest
  std::uint64_t disk_bytes_ = 0;
  std::int64_t access_clock_ = 0;  // monotonic in-process access order
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evicted_files_ = 0;
};

}  // namespace fsr::campaign

#endif  // FSR_CAMPAIGN_CACHE_H
