#include "api/shard_router.h"

#include <algorithm>

#include "util/strings.h"

namespace fsr::api {

namespace {

/// splitmix64 finisher: avalanches a vnode's (shard, index) pair into a
/// ring point. The constants are the reference ones (Steele et al.).
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ShardRouter::ShardRouter(std::size_t shards, std::size_t vnodes_per_shard)
    : shards_(shards == 0 ? 1 : shards) {
  const std::size_t vnodes = vnodes_per_shard == 0 ? 1 : vnodes_per_shard;
  ring_.reserve(shards_ * vnodes);
  for (std::size_t shard = 0; shard < shards_; ++shard) {
    for (std::size_t vnode = 0; vnode < vnodes; ++vnode) {
      // A vnode's point depends only on its own (shard, vnode) pair, so a
      // ring of N shards is a subset of the ring of N+1 shards — the
      // consistency property.
      const std::uint64_t point = mix64((static_cast<std::uint64_t>(shard)
                                         << 32) |
                                        static_cast<std::uint64_t>(vnode));
      ring_.emplace_back(point, static_cast<std::uint32_t>(shard));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ShardRouter::shard_of(std::string_view fingerprint) const noexcept {
  const std::uint64_t key = util::fnv1a64(fingerprint);
  // First ring point at or clockwise of the key, wrapping at the top.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [](const std::pair<std::uint64_t, std::uint32_t>& entry,
         std::uint64_t value) { return entry.first < value; });
  if (it == ring_.end()) it = ring_.begin();
  return static_cast<std::size_t>(it->second);
}

}  // namespace fsr::api
