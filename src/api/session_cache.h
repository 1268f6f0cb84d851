// Worker-local warm solver-session store for the AnalysisService.
//
// Each service worker keeps the most recently used instances' persistent
// solver sessions alive between requests, keyed by instance fingerprint
// (CompiledRequest::fingerprint — kind-free, so ground-truth and repair
// requests over the same instance share one entry). The fingerprint is a
// 64-bit digest, so a hit also checks content: the entry's instance must
// be the same object or have the same destination, edges and ranked
// permitted paths. Two instances that share a fingerprint never share
// sessions. Each entry holds:
//
//   * strict_gate — an IncrementalSafetySession over the instance's
//     strict-mode encoding that is only ever asked the retraction-free
//     base query. Its answer is the recorded engine verdict/core, which is
//     byte-identical to a fresh session's first check (the RepairSessions
//     contract in repair/repair_engine.h), so a warm hit skips the
//     translate + encode + assert cost without perturbing report bytes.
//   * oracle — a StableSatSession whose per-query blocking groups retire
//     at query end; reuse across requests keeps the base CNF, the
//     per-node ranking-group cache, and all learned clauses, which is the
//     PR-4 within-one-run amortisation extended to the whole service
//     lifetime.
//
// Eviction is least-recently-used over a fixed capacity, so a service
// sweeping many distinct instances bounds its memory while a service
// hammering a hot set stays warm. Capacity 0 disables reuse entirely (the
// cold ablation bench_service measures).
//
// Thread-compatibility: a SessionCache is a mutable single-thread object —
// exactly one worker owns it, matching the sessions it stores.
#ifndef FSR_API_SESSION_CACHE_H
#define FSR_API_SESSION_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>

#include "fsr/incremental_session.h"
#include "groundtruth/stable_sat.h"
#include "spp/spp.h"

namespace fsr::api {

class SessionCache {
 public:
  struct Entry {
    std::string fingerprint;
    std::shared_ptr<const spp::SppInstance> instance;
    std::optional<IncrementalSafetySession> strict_gate;
    std::optional<groundtruth::StableSatSession> oracle;
  };

  explicit SessionCache(std::size_t capacity) : capacity_(capacity) {}

  SessionCache(const SessionCache&) = delete;
  SessionCache& operator=(const SessionCache&) = delete;

  /// Returns the entry for `fingerprint`, creating (and, at capacity,
  /// evicting the least recently used entry) as needed; the returned entry
  /// becomes most recently used. An entry under the same fingerprint but
  /// other content (a digest collision) is a miss: it is started over for
  /// `instance`, sessions dropped. With capacity 0 every call returns a
  /// fresh scratch entry — sessions then live exactly one request.
  /// The pointer is valid until the next ensure() call.
  Entry* ensure(const std::string& fingerprint,
                const std::shared_ptr<const spp::SppInstance>& instance);

  std::size_t size() const noexcept { return entries_.size(); }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  std::size_t capacity_;
  std::list<Entry> entries_;  // front = most recently used
  std::optional<Entry> scratch_;  // capacity-0 mode
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace fsr::api

#endif  // FSR_API_SESSION_CACHE_H
