#include "sim/simulator.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "spp/path_index.h"
#include "util/error.h"
#include "util/rng.h"

namespace fsr::sim {

namespace {

using spp::Path;
using spp::SppInstance;

using NodeId = spp::PathIndex::NodeId;
using PathId = spp::PathIndex::PathId;
using LinkId = std::uint32_t;

/// "No node" (an event without a second endpoint), "no path" (an empty
/// adj-rib-in slot, a withdrawal, no selection) and "no suffix" alike.
constexpr std::uint32_t k_none = spp::PathIndex::k_none;

// -- hashing primitives -------------------------------------------------------
//
// The incremental detector keeps one 64-bit accumulator per state component.
// Set-like components (selections, adj-rib-ins, down links) XOR avalanched
// entry hashes of their ids, so insert/erase are O(1) at the mutation site.
// The time-relative components (the event queue and the MRAI timers, whose
// canonical form uses offsets from the current tick) instead accumulate
//   sum over entries of entry_hash * R^(absolute tick)   (mod 2^64)
// for an odd constant R: multiplying the sum by R^(-now) at read time yields
// a value that depends only on the RELATIVE offsets, so the accumulator is
// translation-invariant without ever being rebuilt. R is odd, hence
// invertible mod 2^64.

constexpr std::uint64_t k_fnv_offset = 1469598103934665603ULL;
constexpr std::uint64_t k_fnv_prime = 1099511628211ULL;
constexpr std::uint64_t k_time_base = 0x9E3779B97F4A7C15ULL;  // odd

/// Multiplicative inverse mod 2^64 by Newton iteration (odd inputs only).
constexpr std::uint64_t mul_inverse(std::uint64_t a) {
  std::uint64_t x = a;  // correct to 3 bits; each round doubles precision
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

constexpr std::uint64_t k_time_base_inv = mul_inverse(k_time_base);
static_assert(k_time_base * k_time_base_inv == 1, "R must be invertible");

std::uint64_t pow_u64(std::uint64_t base, std::uint64_t exp) {
  std::uint64_t result = 1;
  while (exp != 0) {
    if ((exp & 1) != 0) result *= base;
    base *= base;
    exp >>= 1;
  }
  return result;
}

/// splitmix64 finalizer: spreads entry hashes before they meet the XOR /
/// sum accumulators, so structured inputs cannot cancel systematically.
std::uint64_t avalanche(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Entry hash of a tagged tuple of ids: two 32-bit words per avalanche
/// round, so distinct tuples of one tag collide only by chance.
std::uint64_t entry_hash(char tag, std::uint32_t a, std::uint32_t b,
                         std::uint32_t c = 0, std::uint32_t d = 0) {
  std::uint64_t h = avalanche(k_fnv_offset ^ static_cast<unsigned char>(tag));
  h = avalanche(h ^ ((std::uint64_t{a} << 32) | b));
  return avalanche(h ^ ((std::uint64_t{c} << 32) | d));
}

/// The instance's ids plus the links the simulator adds, built once per
/// simulate() call and shared by every replica. Node and path ids are
/// spp::PathIndex's: node ids follow sorted-name order, so every neighbour
/// order and node order of the protocol is the name order, and path
/// equality is id equality. Links follow edges() order, the order the
/// schedule draws per-link delays and the churn pick in.
struct View {
  struct Adjacent {
    NodeId peer;
    LinkId link;
  };
  struct Link {
    NodeId u;
    NodeId v;
    std::uint32_t rib_u = 0;  // u's adj-rib-in entry for v
    std::uint32_t rib_v = 0;  // v's adj-rib-in entry for u
  };
  struct PathInfo {
    std::uint32_t rib;  // the source's adj-rib-in entry for the next hop
    LinkId link;        // the first hop's link
  };

  explicit View(const SppInstance& spp) : instance(spp), index(spp) {
    adjacency.resize(index.node_count());
    for (const auto& [u, v] : spp.edges()) {
      const Link link{*index.node(u), *index.node(v)};
      adjacency[link.u].push_back({link.v, static_cast<LinkId>(links.size())});
      adjacency[link.v].push_back({link.u, static_cast<LinkId>(links.size())});
      links.push_back(link);
    }
    for (NodeId node = 0; node < index.node_count(); ++node) {
      std::sort(adjacency[node].begin(), adjacency[node].end(),
                [](const Adjacent& x, const Adjacent& y) {
                  return x.peer < y.peer;
                });
      for (const Adjacent& adjacent : adjacency[node]) {
        Link& link = links[adjacent.link];
        (link.u == node ? link.rib_u : link.rib_v) = rib_size++;
      }
    }
    paths.reserve(index.path_count());
    for (PathId id = 0; id < index.path_count(); ++id) {
      const NodeId node = index.source(id);
      const LinkId link =
          std::lower_bound(adjacency[node].begin(), adjacency[node].end(),
                           index.next_hop(id),
                           [](const Adjacent& x, NodeId peer) {
                             return x.peer < peer;
                           })->link;
      paths.push_back(PathInfo{rib_entry(link, node), link});
    }
  }

  /// `node`'s adj-rib-in entry for messages arriving over `link`.
  std::uint32_t rib_entry(LinkId link, NodeId node) const noexcept {
    return links[link].u == node ? links[link].rib_u : links[link].rib_v;
  }

  const SppInstance& instance;
  const spp::PathIndex index;
  std::vector<Link> links;                       // edges() order
  std::vector<std::vector<Adjacent>> adjacency;  // by peer id
  std::uint32_t rib_size = 0;                    // adj-rib-in entries
  std::vector<PathInfo> paths;                   // by path id
};

/// One scheduled event: plain ids. `seq` is the global insertion counter:
/// the queue pops in (tick, seq) order, so ties resolve by enqueue order
/// and the whole run is a deterministic function of the initial schedule.
struct Event {
  enum class Kind : std::uint8_t {
    activate,       // a = node: (re)run the selection rule, advertise changes
    deliver,        // a -> b over `link` carrying `path` (k_none = withdrawal)
    timer,          // a = node: MRAI window expired, flush batched changes
    link_down,      // a~b fails: in-flight lost, both ends withdraw state
    link_up,        // a~b recovers: sessions re-establish, both ends re-send
    session_reset,  // a~b session drops + re-establishes in one tick
  };

  std::uint64_t tick = 0;
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;  // deliver: sending link's epoch (stale = lost)
  Kind kind = Kind::activate;
  NodeId a = k_none;
  NodeId b = k_none;
  PathId path = k_none;
  LinkId link = k_none;
};

struct EventAfter {
  bool operator()(const Event& x, const Event& y) const noexcept {
    if (x.tick != y.tick) return x.tick > y.tick;
    return x.seq > y.seq;
  }
};

const char* kind_name(Event::Kind kind) noexcept {
  switch (kind) {
    case Event::Kind::activate: return "activate";
    case Event::Kind::deliver: return "deliver";
    case Event::Kind::timer: return "timer";
    case Event::Kind::link_down: return "link-down";
    case Event::Kind::link_up: return "link-up";
    case Event::Kind::session_reset: return "session-reset";
  }
  return "activate";
}

enum class Suppression : std::uint8_t { none, split_horizon, poisoned_reverse };

Suppression parse_suppression(const std::string& name) {
  if (name == "split-horizon") return Suppression::split_horizon;
  if (name == "poisoned-reverse") return Suppression::poisoned_reverse;
  return Suppression::none;
}

/// Appends `word` to a canonical-state encoding as raw bytes.
template <typename Word>
void put(std::string& out, Word word) {
  out.append(reinterpret_cast<const char*>(&word), sizeof word);
}

/// The whole machine. Built once per detector pass; everything mutable
/// lives here as ids over the shared View, every mutation site keeps the
/// per-component hashes in step, and the canonical-state encoder can still
/// see all of it for verification.
class Machine {
 public:
  Machine(const View& view, const SimOptions& options)
      : view_(view),
        options_(options),
        suppression_(parse_suppression(options.suppression)),
        delay_(view.links.size()),
        epoch_(view.links.size(), 0),
        down_(view.links.size(), 0),
        selections_(view.index.node_count(), k_none),
        rib_(view.rib_size, k_none),
        timers_(view.index.node_count()) {
    util::Rng rng(options.seed);
    for (std::uint64_t& delay : delay_) {
      delay = static_cast<std::uint64_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(
                 options.max_link_delay < 1 ? 1 : options.max_link_delay)));
    }
    schedule_scenario(rng);
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::uint64_t steps() const noexcept { return steps_; }

  /// True once the churn schedule is exhausted: from here on the machine is
  /// a closed deterministic transition system and oscillation detection is
  /// meaningful.
  bool detecting() const noexcept { return scheduled_remaining_ == 0; }

  /// Processes the next event (the queue must be non-empty).
  void step() {
    const Event event = pop();
    now_ = event.tick;
    ++steps_;
    process(event);
  }

  /// The incrementally-maintained 64-bit state hash, rescaled so the
  /// time-relative components depend only on offsets from `now_`. Masked
  /// with the test seam so collision handling can be forced.
  std::uint64_t state_hash() {
    drain_expired_timers();
    const std::uint64_t scale = pow_u64(k_time_base_inv, now_);
    std::uint64_t h = k_fnv_offset;
    h = (h ^ sel_hash_) * k_fnv_prime;
    h = (h ^ rib_hash_) * k_fnv_prime;
    h = (h ^ down_hash_) * k_fnv_prime;
    h = (h ^ (timer_sum_ * scale)) * k_fnv_prime;
    h = (h ^ (queue_sum_ * scale)) * k_fnv_prime;
    return avalanche(h) & options_.detector_hash_mask;
  }

  /// Exact encoding of the ENTIRE machine state as fixed-width id words,
  /// with absolute times replaced by offsets from `now_` and sequence
  /// numbers by their relative order. Every section but the queue has a
  /// fixed length for the instance, and each ends in a terminator, so the
  /// encoding is injective whatever the node names are. Two states with
  /// equal encodings evolve identically (the queue comparator only reads
  /// tick and relative seq order), so a repeat proves a cycle — the
  /// detection is exact, never a heuristic. The incremental detector
  /// encodes only at Brent teleports and on hash matches.
  std::string canonical_state() const {
    std::string out;
    out.reserve(4 * (selections_.size() + rib_.size()) + down_.size() +
                32 * (heap_.size() + 4));
    for (const PathId selection : selections_) put(out, selection);
    put(out, k_none);
    for (const PathId heard : rib_) put(out, heard);
    put(out, k_none);
    out.append(down_.begin(), down_.end());
    put(out, k_none);
    if (options_.mrai_ticks > 0) {
      // A lapsed, clean, idle timer has no effect on the run and encodes
      // as (0, -, -), which no timer that still matters can.
      for (const NodeTimer& timer : timers_) {
        put(out, timer.ready_tick > now_ ? timer.ready_tick - now_ : 0);
        put(out, static_cast<std::uint8_t>((timer.dirty ? 1 : 0) |
                                           (timer.pending ? 2 : 0)));
      }
      put(out, k_none);
    }
    std::vector<Event> in_flight = heap_;
    std::sort(in_flight.begin(), in_flight.end(),
              [](const Event& x, const Event& y) {
                if (x.tick != y.tick) return x.tick < y.tick;
                return x.seq < y.seq;
              });
    for (const Event& event : in_flight) {
      put(out, event.tick - now_);
      put(out, static_cast<std::uint8_t>(event.kind));
      put(out, static_cast<std::uint8_t>(fresh(event) ? 1 : 0));
      put(out, event.a);
      put(out, event.b);
      put(out, event.path);
    }
    return out;
  }

  /// Assembles the SimResult for this machine's current stop state. A
  /// cutoff run (neither verdict) reports NO final assignment and
  /// fixed_point_stable=false — mid-flight selections must never read as a
  /// fixed point.
  SimResult result(bool oscillating, std::uint64_t cycle_length) {
    SimResult result;
    result.scenario = options_.scenario;
    result.suppression = options_.suppression;
    result.steps = steps_;
    result.ticks = now_;
    result.messages = messages_;
    result.route_changes = route_changes_;
    result.oscillating = oscillating;
    result.cycle_length = cycle_length;
    result.converged = heap_.empty() && !oscillating;
    if (result.converged) result.convergence_tick = last_change_tick_;
    result.cutoff = !result.converged && !result.oscillating;
    if (!result.cutoff) {
      for (NodeId node = 0; node < selections_.size(); ++node) {
        if (selections_[node] == k_none) continue;
        result.final_assignment.emplace_hint(
            result.final_assignment.end(), view_.index.name(node),
            view_.index.path(selections_[node]));
      }
      result.fixed_point_stable =
          spp::is_stable_assignment(view_.instance, result.final_assignment);
    }
    if (options_.record_trace) result.trace = std::move(trace_);
    return result;
  }

 private:
  // -- schedule construction (all randomness is consumed here) --------------

  void schedule_scenario(util::Rng& rng) {
    const auto schedule = [&](std::uint64_t tick, Event::Kind kind, NodeId a,
                              NodeId b = k_none, LinkId link = k_none) {
      push(Event{.tick = tick, .kind = kind, .a = a, .b = b, .link = link});
      ++scheduled_remaining_;
    };
    const bool staged = options_.scenario == "staged";
    const auto window =
        static_cast<std::int64_t>(3 * (view_.index.node_count() - 1));
    for (NodeId node = 0; node < view_.index.node_count(); ++node) {
      if (node == view_.index.destination()) continue;
      schedule(staged ? static_cast<std::uint64_t>(rng.uniform_int(0, window))
                      : 0,
               Event::Kind::activate, node);
    }
    if (view_.links.empty()) return;
    const auto pick = static_cast<LinkId>(rng.uniform_int(
        0, static_cast<std::int64_t>(view_.links.size()) - 1));
    const View::Link& ends = view_.links[pick];
    if (options_.scenario == "link-flap") {
      const auto down = static_cast<std::uint64_t>(rng.uniform_int(4, 12));
      const auto duration = static_cast<std::uint64_t>(rng.uniform_int(3, 9));
      schedule(down, Event::Kind::link_down, ends.u, ends.v, pick);
      schedule(down + duration, Event::Kind::link_up, ends.u, ends.v, pick);
    } else if (options_.scenario == "session-reset") {
      const auto reset = static_cast<std::uint64_t>(rng.uniform_int(4, 12));
      schedule(reset, Event::Kind::session_reset, ends.u, ends.v, pick);
    }
  }

  // -- event processing ------------------------------------------------------

  void process(const Event& event) {
    switch (event.kind) {
      case Event::Kind::activate:
        --scheduled_remaining_;
        trace_line(event, activate(event.a) ? "changed" : "quiet");
        break;
      case Event::Kind::deliver: {
        if (event.epoch != epoch_[event.link] || down_[event.link] != 0) {
          trace_line(event, "lost");
          break;
        }
        set_rib(view_.rib_entry(event.link, event.b), event.path);
        trace_line(event, activate(event.b) ? "changed" : "quiet");
        break;
      }
      case Event::Kind::timer: {
        NodeTimer& timer = timers_[event.a];
        timer.pending = false;
        const bool had_changes = timer.dirty;
        retime(event.a);
        if (had_changes) flush(event.a);
        trace_line(event, had_changes ? "flush" : "quiet");
        break;
      }
      case Event::Kind::link_down: {
        --scheduled_remaining_;
        bump_epoch(event.link);  // in-flight messages on the link are lost
        if (down_[event.link] == 0) {
          down_[event.link] = 1;
          down_hash_ ^= entry_hash('D', event.link, 0);
        }
        sever(event.a, event.link);
        sever(event.b, event.link);
        trace_line(event, "down");
        break;
      }
      case Event::Kind::link_up: {
        --scheduled_remaining_;
        if (down_[event.link] != 0) {
          down_[event.link] = 0;
          down_hash_ ^= entry_hash('D', event.link, 0);
        }
        reestablish(event.a, event.b, event.link);
        reestablish(event.b, event.a, event.link);
        // A recovered destination link restores direct routes: re-select.
        activate(event.a);
        activate(event.b);
        trace_line(event, "up");
        break;
      }
      case Event::Kind::session_reset: {
        --scheduled_remaining_;
        bump_epoch(event.link);  // the old session's messages are lost
        sever(event.a, event.link);
        sever(event.b, event.link);
        reestablish(event.a, event.b, event.link);
        reestablish(event.b, event.a, event.link);
        activate(event.a);
        activate(event.b);
        trace_line(event, "reset");
        break;
      }
    }
  }

  /// `node` forgets everything it heard over `link` and re-selects (a
  /// selection change propagates to its other neighbours as usual).
  void sever(NodeId node, LinkId link) {
    if (node == view_.index.destination()) return;
    set_rib(view_.rib_entry(link, node), k_none);
    activate(node);
  }

  /// Sets one adj-rib-in entry (k_none = empty), keeping its hash in step.
  void set_rib(std::uint32_t entry, PathId path) {
    PathId& heard = rib_[entry];
    if (heard != k_none) rib_hash_ ^= entry_hash('R', entry, heard);
    heard = path;
    if (heard != k_none) rib_hash_ ^= entry_hash('R', entry, heard);
  }

  /// A fresh session towards `peer`: `node` re-sends its current selection
  /// (or an explicit withdrawal) so the peer's adj-rib-in repopulates —
  /// subject to the suppression policy like any other advertisement.
  void reestablish(NodeId node, NodeId peer, LinkId link) {
    if (node == view_.index.destination() ||
        peer == view_.index.destination()) {
      return;
    }
    send_policy(node, peer, link, selections_[node]);
  }

  /// Re-runs the selection rule at `node`; on a change, records it and
  /// advertises (directly or behind the MRAI timer). Returns true when the
  /// selection changed.
  bool activate(NodeId node) {
    if (node == view_.index.destination()) return false;
    const PathId best = select(node);
    PathId& current = selections_[node];
    if (best == current) return false;
    if (current != k_none) sel_hash_ ^= entry_hash('S', node, current);
    if (best != k_none) sel_hash_ ^= entry_hash('S', node, best);
    current = best;
    ++route_changes_;
    last_change_tick_ = now_;
    advertise(node);
    return true;
  }

  /// The SPVP selection rule over the node's adj-rib-in: the highest-ranked
  /// permitted path whose first hop is up and which is direct or extends
  /// exactly what the next hop advertised (spp::best_consistent_choice on
  /// the advertised view, plus the down-link filter that churn needs).
  PathId select(NodeId node) const {
    for (const PathId candidate : view_.index.ranked(node)) {
      const View::PathInfo& info = view_.paths[candidate];
      if (down_[info.link] != 0) continue;
      if (view_.index.direct(candidate)) return candidate;
      const PathId heard = rib_[info.rib];
      if (heard != k_none && heard == view_.index.suffix(candidate)) {
        return candidate;
      }
    }
    return k_none;
  }

  /// Propagates a selection change: immediately under triggered updates,
  /// batched behind the per-node timer inside an MRAI window.
  void advertise(NodeId node) {
    if (options_.mrai_ticks == 0) {
      flush(node);
      return;
    }
    NodeTimer& timer = timers_[node];
    if (now_ >= timer.ready_tick) {
      flush(node);
      return;
    }
    timer.dirty = true;
    if (!timer.pending) {
      timer.pending = true;
      push(Event{
          .tick = timer.ready_tick, .kind = Event::Kind::timer, .a = node});
    }
    retime(node);
  }

  /// Sends the node's current selection to every neighbour over an up link
  /// (subject to the suppression policy) and opens the next MRAI window.
  void flush(NodeId node) {
    const PathId selection = selections_[node];
    for (const View::Adjacent& adjacent : view_.adjacency[node]) {
      if (adjacent.peer == view_.index.destination()) continue;
      if (down_[adjacent.link] != 0) continue;
      send_policy(node, adjacent.peer, adjacent.link, selection);
    }
    if (options_.mrai_ticks > 0) {
      NodeTimer& timer = timers_[node];
      timer.ready_tick = now_ + options_.mrai_ticks;
      timer.dirty = false;
      retime(node);
    }
  }

  /// One advertisement under the suppression policy: towards the selected
  /// path's next hop, split-horizon sends nothing and poisoned-reverse
  /// sends an explicit withdrawal; everyone else gets the selection.
  void send_policy(NodeId from, NodeId to, LinkId link, PathId selection) {
    const bool toward_next_hop =
        selection != k_none && view_.index.next_hop(selection) == to;
    if (toward_next_hop && suppression_ == Suppression::split_horizon) return;
    if (toward_next_hop && suppression_ == Suppression::poisoned_reverse) {
      selection = k_none;
    }
    push(Event{.tick = now_ + delay_[link],
               .epoch = epoch_[link],
               .kind = Event::Kind::deliver,
               .a = from,
               .b = to,
               .path = selection,
               .link = link});
    ++messages_;
  }

  // -- queue (binary heap over a visible vector, so epoch bumps can retag
  //    in-flight hash contributions in place) ------------------------------

  void push(Event event) {
    event.seq = next_seq_++;
    queue_sum_ += event_term(event);
    heap_.push_back(event);
    std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
    const Event event = heap_.back();
    heap_.pop_back();
    queue_sum_ -= event_term(event);
    return event;
  }

  /// Loses every in-flight message on `link`: the epoch bump flips their
  /// canonical freshness flag, so their queue-hash terms are swapped out
  /// under the old epoch and back in under the new one.
  void bump_epoch(LinkId link) {
    for (const Event& event : heap_) {
      if (event.kind == Event::Kind::deliver && event.link == link) {
        queue_sum_ -= event_term(event);
      }
    }
    ++epoch_[link];
    for (const Event& event : heap_) {
      if (event.kind == Event::Kind::deliver && event.link == link) {
        queue_sum_ += event_term(event);
      }
    }
  }

  /// A delivery is fresh while its link's epoch is the one it was sent in.
  bool fresh(const Event& event) const {
    return event.kind != Event::Kind::deliver ||
           epoch_[event.link] == event.epoch;
  }

  // -- per-component entry hashes -------------------------------------------

  /// Queue term: entry hash (content + the canonical freshness flag, read
  /// from the CURRENT epochs) weighted by R^tick. Every call site keeps
  /// the accumulator consistent with the epochs: push/pop add/subtract
  /// under the epochs of that moment, and bump_epoch retags affected
  /// events.
  std::uint64_t event_term(const Event& event) const {
    const std::uint32_t tag =
        (static_cast<std::uint32_t>(event.kind) << 1) | (fresh(event) ? 1 : 0);
    return entry_hash('Q', tag, event.a, event.b, event.path) *
           pow_u64(k_time_base, event.tick);
  }

  // -- MRAI timer hashing ----------------------------------------------------

  struct NodeTimer {
    std::uint64_t ready_tick = 0;  // earliest tick the node may flush again
    bool pending = false;          // a timer event is in the queue
    bool dirty = false;            // changes batched since the last flush
    std::uint64_t contrib = 0;     // this entry's current timer_sum_ term
  };

  /// A timer entry's term, mirroring the canonical encoder's visibility
  /// rule: entries that are neither pending nor dirty and whose window has
  /// lapsed contribute nothing. Visible entries always have
  /// ready_tick >= now_, so the R^ready_tick weighting rescales to the
  /// encoded offset exactly.
  std::uint64_t timer_term(NodeId node, const NodeTimer& timer) const {
    if (!timer.pending && !timer.dirty && timer.ready_tick <= now_) return 0;
    return entry_hash('T', node,
                      (timer.dirty ? 1u : 0u) | (timer.pending ? 2u : 0u)) *
           pow_u64(k_time_base, timer.ready_tick);
  }

  /// Recomputes `node`'s timer contribution after any mutation (idempotent:
  /// the stored contribution is subtracted first). Entries that can lapse
  /// silently — open window, nothing pending or dirty — are queued for lazy
  /// expiry so time passing alone cannot leave a stale term behind.
  void retime(NodeId node) {
    NodeTimer& timer = timers_[node];
    timer_sum_ -= timer.contrib;
    timer.contrib = timer_term(node, timer);
    timer_sum_ += timer.contrib;
    if (!timer.pending && !timer.dirty && timer.ready_tick > now_) {
      timer_expiry_.push({timer.ready_tick, node});
    }
  }

  /// Lazily drops timer terms whose window lapsed with no event touching
  /// them (retime is idempotent, so stale expiry entries are harmless).
  void drain_expired_timers() {
    while (!timer_expiry_.empty() && timer_expiry_.top().first <= now_) {
      const NodeId node = timer_expiry_.top().second;
      timer_expiry_.pop();
      retime(node);
    }
  }

  // -- trace recording -------------------------------------------------------

  void trace_line(const Event& event, const char* note) {
    if (!options_.record_trace) return;
    std::string line = "t=" + std::to_string(event.tick);
    line += ' ';
    line += kind_name(event.kind);
    line += ' ';
    line += view_.index.name(event.a);
    if (event.b != k_none) {
      line += '>';
      line += view_.index.name(event.b);
    }
    if (event.kind == Event::Kind::deliver) {
      line += ' ';
      line += event.path != k_none ? view_.index.path_name(event.path)
                                   : std::string("withdraw");
    }
    line += ' ';
    line += note;
    trace_.push_back(std::move(line));
  }

  // -- state -----------------------------------------------------------------

  const View& view_;
  const SimOptions& options_;
  const Suppression suppression_;

  std::vector<std::uint64_t> delay_;  // per link
  std::vector<std::uint64_t> epoch_;  // per link
  std::vector<char> down_;            // per link: 1 while down

  std::vector<PathId> selections_;  // per node (k_none = no route)
  std::vector<PathId> rib_;         // adj-rib-in entries (View::Link)
  std::vector<NodeTimer> timers_;   // per node

  std::vector<Event> heap_;  // binary heap under EventAfter
  std::uint64_t next_seq_ = 0;
  std::uint64_t now_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t scheduled_remaining_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t route_changes_ = 0;
  std::uint64_t last_change_tick_ = 0;
  std::vector<std::string> trace_;

  // Incremental state-hash accumulators (see the hashing-primitives note).
  std::uint64_t sel_hash_ = 0;
  std::uint64_t rib_hash_ = 0;
  std::uint64_t down_hash_ = 0;
  std::uint64_t timer_sum_ = 0;
  std::uint64_t queue_sum_ = 0;
  std::priority_queue<std::pair<std::uint64_t, NodeId>,
                      std::vector<std::pair<std::uint64_t, NodeId>>,
                      std::greater<>>
      timer_expiry_;
};

// -- detectors ----------------------------------------------------------------

/// The PR-8 detector: canonicalise the full state after every post-churn
/// step, report the first repeat. O(steps x state-size) time and memory;
/// kept for the differential suite and the bench_sim ablation.
SimResult run_canonical(const View& view, const SimOptions& options) {
  Machine machine(view, options);
  // step -> canonical state, populated once the churn schedule is done;
  // an exact repeat proves the run cycles forever.
  std::unordered_map<std::string, std::uint64_t> seen_states;
  while (!machine.empty() && machine.steps() < options.max_steps) {
    machine.step();
    if (machine.detecting()) {
      const auto [it, inserted] =
          seen_states.emplace(machine.canonical_state(), machine.steps());
      if (!inserted) {
        return machine.result(true, machine.steps() - it->second);
      }
    }
  }
  return machine.result(false, 0);
}

/// The incremental detector: Brent's cycle detection over the post-churn
/// state-hash sequence, O(1) hashing work per step. The canonical state is
/// encoded only at Brent teleports and on hash matches; a match whose
/// canonical encodings differ is a collision (counted, never believed). The
/// order-free queue sum cannot see the order of same-tick deliveries, so
/// states that differ only there hash equal and collide. The pass appends
/// each post-churn hash to a log (8 bytes per step — against the canonical
/// detector's full state encoding per step) so that once the minimal period
/// lambda is confirmed, the first repeat can be located by scanning the
/// log: two replicas, lambda states apart, step in lockstep over the mu
/// candidates, and the leading one stops exactly where the canonical
/// detector stopped — so the reported SimResult (steps, ticks, message
/// counts, stop state) is byte-identical to the canonical detector's.
SimResult run_incremental(const View& view, const SimOptions& options,
                          std::uint64_t& collisions) {
  Machine machine(view, options);
  std::vector<std::uint64_t> hashes;  // post-churn hash log, in step order
  bool have_tortoise = false;
  std::uint64_t tortoise_hash = 0;
  std::string tortoise_canonical;
  std::uint64_t power = 1;
  std::uint64_t lam = 1;
  std::optional<std::uint64_t> lambda;

  while (!machine.empty() && machine.steps() < options.max_steps) {
    machine.step();
    if (!machine.detecting()) continue;
    const std::uint64_t h = machine.state_hash();
    hashes.push_back(h);
    if (!have_tortoise) {
      have_tortoise = true;
      tortoise_hash = h;
      tortoise_canonical = machine.canonical_state();
      continue;
    }
    if (h == tortoise_hash) {
      if (machine.canonical_state() == tortoise_canonical) {
        lambda = lam;
        break;
      }
      ++collisions;  // verification rejected the hash match
    }
    if (lam == power) {
      tortoise_hash = h;
      tortoise_canonical = machine.canonical_state();
      power <<= 1;
      lam = 0;
    }
    ++lam;
  }

  if (!lambda.has_value()) return machine.result(false, 0);

  // Period confirmed. Locate mu — the first post-churn step whose state
  // recurs — from the hash log: candidates are indices k with
  // hashes[k] == hashes[k + lambda] (the Brent anchor guarantees the log
  // covers the true mu and mu + lambda). Two replicas walk the candidates
  // in lockstep: the tortoise stands on the k-th post-churn state and the
  // hare lambda states further, so each candidate costs one step per
  // replica and one pair of canonical encodings. On a genuine repeat the
  // hare stands exactly where the canonical detector stopped, and its
  // counters ARE the result. A rejected candidate (collision) is counted
  // and both replicas step on.
  const std::uint64_t lam_v = *lambda;
  const auto advance = [&options](Machine& m, std::uint64_t states) {
    while (states > 0 && !m.empty() && m.steps() < options.max_steps) {
      m.step();
      if (m.detecting()) --states;
    }
  };
  std::size_t k = 0;
  while (k + lam_v < hashes.size() && hashes[k] != hashes[k + lam_v]) ++k;
  if (k + lam_v < hashes.size()) {
    Machine tortoise(view, options);
    advance(tortoise, static_cast<std::uint64_t>(k) + 1);
    Machine hare = tortoise;
    advance(hare, lam_v);
    for (; k + lam_v < hashes.size(); ++k) {
      if (hashes[k] == hashes[k + lam_v]) {
        if (hare.canonical_state() == tortoise.canonical_state()) {
          return hare.result(true, lam_v);
        }
        ++collisions;
      }
      advance(tortoise, 1);
      advance(hare, 1);
    }
  }
  // Unreachable: the Brent pass canonically confirmed a repeat, so some
  // candidate above verifies. Kept as a defensive fall-through.
  return machine.result(true, lam_v);
}

}  // namespace

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names{"steady", "staged", "link-flap",
                                              "session-reset"};
  return names;
}

bool is_scenario_name(const std::string& name) {
  for (const std::string& known : scenario_names()) {
    if (known == name) return true;
  }
  return false;
}

const std::vector<std::string>& suppression_names() {
  static const std::vector<std::string> names{"none", "split-horizon",
                                              "poisoned-reverse"};
  return names;
}

bool is_suppression_name(const std::string& name) {
  for (const std::string& known : suppression_names()) {
    if (known == name) return true;
  }
  return false;
}

SimResult simulate(const SppInstance& instance, const SimOptions& options) {
  if (!is_scenario_name(options.scenario)) {
    throw InvalidArgument("unknown simulation scenario '" + options.scenario +
                          "' (expected one of: steady, staged, link-flap, "
                          "session-reset)");
  }
  if (!is_suppression_name(options.suppression)) {
    throw InvalidArgument("unknown suppression policy '" + options.suppression +
                          "' (expected one of: none, split-horizon, "
                          "poisoned-reverse)");
  }
  if (options.detector != "incremental" && options.detector != "canonical") {
    throw InvalidArgument("unknown oscillation detector '" + options.detector +
                          "' (expected incremental or canonical)");
  }
  if (options.max_steps == 0) {
    throw InvalidArgument("simulation max_steps must be >= 1");
  }

  obs::Span span("sim.run");
  span.arg("instance", instance.name());
  span.arg("scenario", options.scenario);

  const View view(instance);
  std::uint64_t collisions = 0;
  SimResult result = options.detector == "canonical"
                         ? run_canonical(view, options)
                         : run_incremental(view, options, collisions);

  // Per-run registry flush (boundary counting, per obs/metrics.h): one
  // relaxed add per instrument per run, never per event.
  static obs::Counter& runs = obs::registry().counter("sim.runs");
  static obs::Counter& messages = obs::registry().counter("sim.messages");
  static obs::Counter& converged = obs::registry().counter("sim.converged");
  static obs::Counter& oscillations =
      obs::registry().counter("sim.oscillations");
  static obs::Counter& hash_collisions =
      obs::registry().counter("sim.hash_collisions");
  static obs::Histogram& steps_histogram =
      obs::registry().histogram("sim.convergence_steps");
  runs.add(1);
  messages.add(result.messages);
  if (result.converged) {
    converged.add(1);
    steps_histogram.record(result.steps);
  }
  if (result.oscillating) oscillations.add(1);
  if (collisions > 0) hash_collisions.add(collisions);

  span.arg("steps", result.steps);
  span.arg("messages", result.messages);
  span.arg("converged", result.converged);
  obs::record_event(obs::RecorderEventKind::mark,
                    "sim:" + options.scenario + ":" + instance.name(),
                    result.steps, result.messages);
  return result;
}

}  // namespace fsr::sim
