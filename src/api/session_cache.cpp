#include "api/session_cache.h"

#include "obs/metrics.h"
#include "obs/recorder.h"

namespace fsr::api {

namespace {

// Per-cache counters stay (single-thread, test-visible); the registry gets
// the process-wide aggregate across all workers. References are resolved
// once — ensure() itself never takes the registration lock.
struct CacheMetrics {
  obs::Counter& hits = obs::registry().counter("session_cache.hits");
  obs::Counter& misses = obs::registry().counter("session_cache.misses");
  obs::Counter& evictions = obs::registry().counter("session_cache.evictions");
};

CacheMetrics& cache_metrics() {
  static CacheMetrics metrics;
  return metrics;
}

/// Content equality of two instances, as spp::canonical_spp sees it (the
/// name is not content), without rendering either: the same object, or
/// the same destination, edges in order and ranked permitted paths.
bool same_content(const spp::SppInstance& a, const spp::SppInstance& b) {
  if (&a == &b) return true;
  if (a.destination() != b.destination() || a.edges() != b.edges()) {
    return false;
  }
  const std::vector<std::string> nodes = a.nodes();
  if (nodes != b.nodes()) return false;
  for (const std::string& node : nodes) {
    if (a.permitted(node) != b.permitted(node)) return false;
  }
  return true;
}

}  // namespace

SessionCache::Entry* SessionCache::ensure(
    const std::string& fingerprint,
    const std::shared_ptr<const spp::SppInstance>& instance) {
  CacheMetrics& metrics = cache_metrics();
  if (capacity_ == 0) {
    ++misses_;
    metrics.misses.add(1);
    scratch_.emplace();
    scratch_->fingerprint = fingerprint;
    scratch_->instance = instance;
    return &*scratch_;
  }
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->fingerprint != fingerprint) continue;
    entries_.splice(entries_.begin(), entries_, it);  // bump to MRU
    Entry& entry = entries_.front();
    if (same_content(*entry.instance, *instance)) {
      ++hits_;
      metrics.hits.add(1);
      return &entry;
    }
    // A digest collision: the entry's sessions belong to other content,
    // so this is a miss that starts the entry over for this instance.
    ++misses_;
    metrics.misses.add(1);
    entry.instance = instance;
    entry.strict_gate.reset();
    entry.oracle.reset();
    return &entry;
  }
  ++misses_;
  metrics.misses.add(1);
  if (entries_.size() >= capacity_) {
    obs::record_event(obs::RecorderEventKind::cache_eviction,
                      entries_.back().fingerprint);
    entries_.pop_back();
    ++evictions_;
    metrics.evictions.add(1);
  }
  entries_.emplace_front();
  entries_.front().fingerprint = fingerprint;
  entries_.front().instance = instance;
  return &entries_.front();
}

}  // namespace fsr::api
