// ShardRouter: consistent hashing of instance fingerprints onto worker
// shards — how AnalysisService's affinity policy picks a worker queue.
//
// The AnalysisService keeps one warm SessionCache per worker, so WHERE a
// request runs decides whether it hits warm solver state. Blind pool
// submission dilutes the hit rate under concurrency: the same instance
// lands on whichever worker is free, and every worker slowly builds (and
// evicts) its own copy of every hot session. The router fixes the mapping:
// a request's content fingerprint (api::fingerprint — kind-free, so
// ground-truth and repair requests over one instance agree) always hashes
// to the same shard, so the warm session for an instance lives on exactly
// one worker and every request for that instance finds it.
//
// The hash is a classic consistent-hash ring (k virtual nodes per shard on
// a 64-bit ring, lookup = first point clockwise of the key hash). Two
// properties matter here:
//
//   * determinism — the ring is a pure function of (shard count, vnodes),
//     so the fingerprint→shard mapping is reproducible across processes
//     and testable as a first-class seam (AnalysisService::shard_of);
//   * stability under resizing — growing N shards to N+1 only remaps the
//     keys nearest the new shard's vnodes (~1/(N+1) of them), so a fleet
//     scaling its shard count keeps most instances on their warm worker
//     (plain hash-mod would remap nearly everything).
//
// Response BYTES never depend on the mapping (the service determinism
// contract); only session-cache temperature does. That is what lets the
// wire contract promise byte-identical responses at any --shards value.
//
// Thread-safety: immutable after construction; shard_of is const and
// lock-free, safe from any thread.
#ifndef FSR_API_SHARD_ROUTER_H
#define FSR_API_SHARD_ROUTER_H

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace fsr::api {

class ShardRouter {
 public:
  /// `shards` >= 1; `vnodes_per_shard` trades lookup-table size for
  /// balance (64 keeps the max/mean shard load within ~30% in practice).
  explicit ShardRouter(std::size_t shards, std::size_t vnodes_per_shard = 64);

  std::size_t shards() const noexcept { return shards_; }

  /// The shard `fingerprint` maps to. Total: every string (including the
  /// empty fingerprint of stats/debug/unparseable requests) maps to some
  /// shard, deterministically.
  std::size_t shard_of(std::string_view fingerprint) const noexcept;

 private:
  std::size_t shards_;
  /// (ring point, shard), sorted by point; lookup is a binary search.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

}  // namespace fsr::api

#endif  // FSR_API_SHARD_ROUTER_H
