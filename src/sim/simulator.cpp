#include "sim/simulator.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/rng.h"

namespace fsr::sim {

namespace {

using spp::Assignment;
using spp::Path;
using spp::SppInstance;

using Link = std::pair<std::string, std::string>;  // normalised (min, max)

Link link_of(const std::string& u, const std::string& v) {
  return u < v ? Link{u, v} : Link{v, u};
}

// -- hashing primitives -------------------------------------------------------
//
// The incremental detector keeps one 64-bit accumulator per state component.
// Set-like components (selections, adj-rib-ins, down links) XOR avalanched
// FNV-1a entry hashes, so insert/erase are O(1) at the mutation site. The
// time-relative components (the event queue and the MRAI timers, whose
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

std::uint64_t fnv_byte(std::uint64_t h, unsigned char b) {
  return (h ^ b) * k_fnv_prime;
}

std::uint64_t fnv_str(std::uint64_t h, const std::string& s) {
  for (const char c : s) h = fnv_byte(h, static_cast<unsigned char>(c));
  return fnv_byte(h, 0x1F);  // terminator keeps concatenations unambiguous
}

std::uint64_t fnv_path(std::uint64_t h, const Path& path) {
  for (const std::string& hop : path) h = fnv_str(h, hop);
  return fnv_byte(h, 0x1E);
}

/// One scheduled event. `seq` is the global insertion counter: the queue
/// pops in (tick, seq) order, so ties resolve by enqueue order and the
/// whole run is a deterministic function of the initial schedule.
struct Event {
  enum class Kind : std::uint8_t {
    activate,       // a = node: (re)run the selection rule, advertise changes
    deliver,        // a -> b carrying `payload` (nullopt = withdrawal)
    timer,          // a = node: MRAI window expired, flush batched changes
    link_down,      // a~b fails: in-flight lost, both ends withdraw state
    link_up,        // a~b recovers: sessions re-establish, both ends re-send
    session_reset,  // a~b session drops + re-establishes in one tick
  };

  std::uint64_t tick = 0;
  std::uint64_t seq = 0;
  Kind kind = Kind::activate;
  std::string a;
  std::string b;
  std::optional<Path> payload;
  std::uint64_t epoch = 0;  // deliver: sending link's epoch (stale = lost)
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

/// The whole machine. Built once per detector pass; everything mutable
/// lives here, every mutation site keeps the per-component hashes in step,
/// and the canonical-state renderer can still see all of it for
/// verification.
class Machine {
 public:
  Machine(const SppInstance& instance, const SimOptions& options)
      : instance_(instance),
        options_(options),
        suppression_(parse_suppression(options.suppression)) {
    util::Rng rng(options.seed);
    for (const auto& [u, v] : instance.edges()) {
      delay_[link_of(u, v)] = static_cast<std::uint64_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(
                 options.max_link_delay < 1 ? 1 : options.max_link_delay)));
      if (u != instance.destination()) adjacency_[u].push_back(v);
      if (v != instance.destination()) adjacency_[v].push_back(u);
    }
    // Deterministic neighbour order regardless of edge declaration order.
    for (auto& [node, neighbours] : adjacency_) {
      std::sort(neighbours.begin(), neighbours.end());
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
    Event event = pop();
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

  /// Canonical rendering of the ENTIRE machine state with absolute times
  /// replaced by offsets from `now_` and sequence numbers by their relative
  /// order. Two states with equal strings evolve identically (the queue
  /// comparator only reads tick and relative seq order), so a repeat proves
  /// a cycle — the detection is exact, never a heuristic. The incremental
  /// detector renders this only at Brent teleports and on hash matches.
  std::string canonical_state() const {
    std::string out;
    out.reserve(256);
    out += "sel:";
    for (const auto& [node, path] : selections_) {
      out += node;
      out += '=';
      out += spp::path_name(path);
      out += ';';
    }
    out += "|rib:";
    for (const auto& [node, rib] : rib_in_) {
      for (const auto& [peer, path] : rib) {
        out += node;
        out += '<';
        out += peer;
        out += '=';
        out += spp::path_name(path);
        out += ';';
      }
    }
    out += "|down:";
    for (const auto& link : down_) {
      out += link.first;
      out += '~';
      out += link.second;
      out += ';';
    }
    if (options_.mrai_ticks > 0) {
      out += "|mrai:";
      for (const auto& [node, timer] : timers_) {
        if (timer.ready_tick > now_ || timer.dirty || timer.pending) {
          out += node;
          out += '=';
          out += std::to_string(
              timer.ready_tick > now_ ? timer.ready_tick - now_ : 0);
          out += timer.dirty ? 'd' : '-';
          out += timer.pending ? 'p' : '-';
          out += ';';
        }
      }
    }
    out += "|q:";
    std::vector<Event> in_flight = heap_;
    std::sort(in_flight.begin(), in_flight.end(),
              [](const Event& x, const Event& y) {
                if (x.tick != y.tick) return x.tick < y.tick;
                return x.seq < y.seq;
              });
    for (const Event& event : in_flight) {
      out += std::to_string(event.tick - now_);
      out += ',';
      out += kind_name(event.kind);
      out += ',';
      out += event.a;
      out += '>';
      out += event.b;
      out += ',';
      out += event.payload.has_value() ? spp::path_name(*event.payload)
                                       : std::string("w");
      const auto it = epoch_.find(link_of(event.a, event.b));
      const bool fresh =
          event.kind != Event::Kind::deliver ||
          (it != epoch_.end() && it->second == event.epoch);
      out += fresh ? 'f' : 's';
      out += ';';
    }
    return out;
  }

  /// Assembles the SimResult for this machine's current stop state. The
  /// verdict gating is the satellite bugfix: a cutoff run (neither verdict)
  /// reports NO final assignment and fixed_point_stable=false — mid-flight
  /// selections must never read as a fixed point.
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
      result.final_assignment = selections_;
      result.fixed_point_stable =
          spp::is_stable_assignment(instance_, selections_);
    }
    if (options_.record_trace) result.trace = std::move(trace_);
    return result;
  }

 private:
  // -- schedule construction (all randomness is consumed here) --------------

  void schedule_scenario(util::Rng& rng) {
    const std::vector<std::string> nodes = instance_.nodes();
    const auto schedule = [&](std::uint64_t tick, Event::Kind kind,
                              std::string a, std::string b = {}) {
      Event event;
      event.tick = tick;
      event.kind = kind;
      event.a = std::move(a);
      event.b = std::move(b);
      push(std::move(event));
      ++scheduled_remaining_;
    };
    if (options_.scenario == "staged") {
      const auto window = static_cast<std::int64_t>(3 * nodes.size());
      for (const std::string& node : nodes) {
        schedule(static_cast<std::uint64_t>(rng.uniform_int(0, window)),
                 Event::Kind::activate, node);
      }
    } else {
      for (const std::string& node : nodes) {
        schedule(0, Event::Kind::activate, node);
      }
    }
    if (instance_.edges().empty()) return;
    const auto& edges = instance_.edges();
    const auto pick = edges[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(edges.size()) - 1))];
    if (options_.scenario == "link-flap") {
      const auto down = static_cast<std::uint64_t>(rng.uniform_int(4, 12));
      const auto duration = static_cast<std::uint64_t>(rng.uniform_int(3, 9));
      schedule(down, Event::Kind::link_down, pick.first, pick.second);
      schedule(down + duration, Event::Kind::link_up, pick.first, pick.second);
    } else if (options_.scenario == "session-reset") {
      const auto reset = static_cast<std::uint64_t>(rng.uniform_int(4, 12));
      schedule(reset, Event::Kind::session_reset, pick.first, pick.second);
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
        const Link link = link_of(event.a, event.b);
        if (event.epoch != epoch_[link] || down_.contains(link)) {
          trace_line(event, "lost");
          break;
        }
        auto& rib = rib_in_[event.b];
        const auto it = rib.find(event.a);
        if (it != rib.end()) {
          rib_hash_ ^= rib_entry_hash(event.b, event.a, it->second);
        }
        if (event.payload.has_value()) {
          rib[event.a] = *event.payload;
          rib_hash_ ^= rib_entry_hash(event.b, event.a, *event.payload);
        } else if (it != rib.end()) {
          rib.erase(it);
        }
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
        const Link link = link_of(event.a, event.b);
        bump_epoch(link);  // in-flight messages on the link are lost
        if (down_.insert(link).second) down_hash_ ^= down_entry_hash(link);
        sever(event.a, event.b);
        sever(event.b, event.a);
        trace_line(event, "down");
        break;
      }
      case Event::Kind::link_up: {
        --scheduled_remaining_;
        const Link link = link_of(event.a, event.b);
        if (down_.erase(link) > 0) down_hash_ ^= down_entry_hash(link);
        reestablish(event.a, event.b);
        reestablish(event.b, event.a);
        // A recovered destination link restores direct routes: re-select.
        activate(event.a);
        activate(event.b);
        trace_line(event, "up");
        break;
      }
      case Event::Kind::session_reset: {
        --scheduled_remaining_;
        const Link link = link_of(event.a, event.b);
        bump_epoch(link);  // the old session's in-flight messages are lost
        sever(event.a, event.b);
        sever(event.b, event.a);
        reestablish(event.a, event.b);
        reestablish(event.b, event.a);
        activate(event.a);
        activate(event.b);
        trace_line(event, "reset");
        break;
      }
    }
  }

  /// `node` forgets everything it heard from `peer` and re-selects (a
  /// selection change propagates to its other neighbours as usual).
  void sever(const std::string& node, const std::string& peer) {
    if (node == instance_.destination()) return;
    const auto rib = rib_in_.find(node);
    if (rib != rib_in_.end()) {
      const auto it = rib->second.find(peer);
      if (it != rib->second.end()) {
        rib_hash_ ^= rib_entry_hash(node, peer, it->second);
        rib->second.erase(it);
      }
    }
    activate(node);
  }

  /// A fresh session towards `peer`: `node` re-sends its current selection
  /// (or an explicit withdrawal) so the peer's adj-rib-in repopulates —
  /// subject to the suppression policy like any other advertisement.
  void reestablish(const std::string& node, const std::string& peer) {
    if (node == instance_.destination() || peer == instance_.destination()) {
      return;
    }
    send_policy(node, peer, current_selection(node));
  }

  /// Re-runs the selection rule at `node`; on a change, records it and
  /// advertises (directly or behind the MRAI timer). Returns true when the
  /// selection changed.
  bool activate(const std::string& node) {
    if (node == instance_.destination()) return false;
    const std::optional<Path> best = select(node);
    const auto it = selections_.find(node);
    const bool had = it != selections_.end();
    if (best.has_value() == had &&
        (!best.has_value() || *best == it->second)) {
      return false;
    }
    if (had) sel_hash_ ^= sel_entry_hash(node, it->second);
    if (best.has_value()) {
      sel_hash_ ^= sel_entry_hash(node, *best);
      selections_[node] = *best;
    } else {
      selections_.erase(it);
    }
    ++route_changes_;
    last_change_tick_ = now_;
    advertise(node);
    return true;
  }

  /// The SPVP selection rule over the node's adj-rib-in. With every
  /// incident link up this is exactly spp::best_consistent_choice applied
  /// to the advertised view; link churn only adds a filter dropping
  /// candidates whose first hop crosses a currently-down link.
  std::optional<Path> select(const std::string& node) {
    Assignment view;
    const auto rib = rib_in_.find(node);
    if (rib != rib_in_.end()) {
      for (const auto& [peer, path] : rib->second) {
        if (!down_.contains(link_of(node, peer))) view[peer] = path;
      }
    }
    if (down_.empty()) return spp::best_consistent_choice(instance_, node, view);
    for (const Path& candidate : instance_.permitted(node)) {
      if (down_.contains(link_of(candidate[0], candidate[1]))) continue;
      if (candidate.size() == 2) return candidate;
      const auto it = view.find(candidate[1]);
      if (it == view.end()) continue;
      if (candidate.size() != it->second.size() + 1) continue;
      if (std::equal(candidate.begin() + 1, candidate.end(),
                     it->second.begin())) {
        return candidate;
      }
    }
    return std::nullopt;
  }

  /// Propagates a selection change: immediately under triggered updates,
  /// batched behind the per-node timer inside an MRAI window.
  void advertise(const std::string& node) {
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
      Event event;
      event.tick = timer.ready_tick;
      event.kind = Event::Kind::timer;
      event.a = node;
      push(std::move(event));
    }
    retime(node);
  }

  /// Sends the node's current selection to every neighbour over an up link
  /// (subject to the suppression policy) and opens the next MRAI window.
  void flush(const std::string& node) {
    const std::optional<Path> selection = current_selection(node);
    const auto adj = adjacency_.find(node);
    if (adj != adjacency_.end()) {
      for (const std::string& peer : adj->second) {
        if (peer == instance_.destination()) continue;
        if (down_.contains(link_of(node, peer))) continue;
        send_policy(node, peer, selection);
      }
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
  void send_policy(const std::string& from, const std::string& to,
                   const std::optional<Path>& selection) {
    const bool toward_next_hop = selection.has_value() &&
                                 selection->size() >= 2 &&
                                 (*selection)[1] == to;
    if (toward_next_hop && suppression_ == Suppression::split_horizon) return;
    if (toward_next_hop && suppression_ == Suppression::poisoned_reverse) {
      send(from, to, std::nullopt);
      return;
    }
    send(from, to, selection);
  }

  void send(const std::string& from, const std::string& to,
            std::optional<Path> payload) {
    const Link link = link_of(from, to);
    push(Event{now_ + delay_.at(link), 0, Event::Kind::deliver, from, to,
               std::move(payload), epoch_[link]});
    ++messages_;
  }

  std::optional<Path> current_selection(const std::string& node) const {
    const auto it = selections_.find(node);
    if (it == selections_.end()) return std::nullopt;
    return it->second;
  }

  // -- queue (binary heap over a visible vector, so epoch bumps can retag
  //    in-flight hash contributions in place) ------------------------------

  void push(Event event) {
    event.seq = next_seq_++;
    queue_sum_ += event_term(event);
    heap_.push_back(std::move(event));
    std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
    Event event = std::move(heap_.back());
    heap_.pop_back();
    queue_sum_ -= event_term(event);
    return event;
  }

  /// Loses every in-flight message on `link`: the epoch bump flips their
  /// canonical freshness flag, so their queue-hash terms are swapped out
  /// under the old epoch and back in under the new one.
  void bump_epoch(const Link& link) {
    for (const Event& event : heap_) {
      if (event.kind == Event::Kind::deliver &&
          link_of(event.a, event.b) == link) {
        queue_sum_ -= event_term(event);
      }
    }
    ++epoch_[link];
    for (const Event& event : heap_) {
      if (event.kind == Event::Kind::deliver &&
          link_of(event.a, event.b) == link) {
        queue_sum_ += event_term(event);
      }
    }
  }

  // -- per-component entry hashes -------------------------------------------

  static std::uint64_t sel_entry_hash(const std::string& node,
                                      const Path& path) {
    std::uint64_t h = fnv_byte(k_fnv_offset, 'S');
    h = fnv_str(h, node);
    h = fnv_path(h, path);
    return avalanche(h);
  }

  static std::uint64_t rib_entry_hash(const std::string& node,
                                      const std::string& peer,
                                      const Path& path) {
    std::uint64_t h = fnv_byte(k_fnv_offset, 'R');
    h = fnv_str(h, node);
    h = fnv_str(h, peer);
    h = fnv_path(h, path);
    return avalanche(h);
  }

  static std::uint64_t down_entry_hash(const Link& link) {
    std::uint64_t h = fnv_byte(k_fnv_offset, 'D');
    h = fnv_str(h, link.first);
    h = fnv_str(h, link.second);
    return avalanche(h);
  }

  /// Queue term: entry hash (content + the canonical freshness flag, read
  /// from the CURRENT epoch map) weighted by R^tick. Every call site keeps
  /// the accumulator consistent with the map: push/pop add/subtract under
  /// the epoch map of that moment, and bump_epoch retags affected events.
  std::uint64_t event_term(const Event& event) const {
    std::uint64_t h = fnv_byte(k_fnv_offset, 'Q');
    h = fnv_byte(h, static_cast<unsigned char>(event.kind));
    h = fnv_str(h, event.a);
    h = fnv_str(h, event.b);
    if (event.payload.has_value()) {
      h = fnv_path(h, *event.payload);
    } else {
      h = fnv_byte(h, 'w');
    }
    const auto it = epoch_.find(link_of(event.a, event.b));
    const bool fresh = event.kind != Event::Kind::deliver ||
                       (it != epoch_.end() && it->second == event.epoch);
    h = fnv_byte(h, fresh ? 'f' : 's');
    return avalanche(h) * pow_u64(k_time_base, event.tick);
  }

  // -- MRAI timer hashing ----------------------------------------------------

  struct NodeTimer {
    std::uint64_t ready_tick = 0;  // earliest tick the node may flush again
    bool pending = false;          // a timer event is in the queue
    bool dirty = false;            // changes batched since the last flush
    std::uint64_t contrib = 0;     // this entry's current timer_sum_ term
  };

  /// A timer entry's term, mirroring the canonical renderer's visibility
  /// rule: entries that are neither pending nor dirty and whose window has
  /// lapsed contribute nothing. Visible entries always have
  /// ready_tick >= now_, so the R^ready_tick weighting rescales to the
  /// rendered offset exactly.
  std::uint64_t timer_term(const std::string& node,
                           const NodeTimer& timer) const {
    if (!timer.pending && !timer.dirty && timer.ready_tick <= now_) return 0;
    std::uint64_t h = fnv_byte(k_fnv_offset, 'T');
    h = fnv_str(h, node);
    h = fnv_byte(h, timer.dirty ? 'd' : '-');
    h = fnv_byte(h, timer.pending ? 'p' : '-');
    return avalanche(h) * pow_u64(k_time_base, timer.ready_tick);
  }

  /// Recomputes `node`'s timer contribution after any mutation (idempotent:
  /// the stored contribution is subtracted first). Entries that can lapse
  /// silently — open window, nothing pending or dirty — are queued for lazy
  /// expiry so time passing alone cannot leave a stale term behind.
  void retime(const std::string& node) {
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
      const std::string node = timer_expiry_.top().second;
      timer_expiry_.pop();
      if (timers_.find(node) != timers_.end()) retime(node);
    }
  }

  // -- trace recording -------------------------------------------------------

  void trace_line(const Event& event, const char* note) {
    if (!options_.record_trace) return;
    std::string line = "t=" + std::to_string(event.tick);
    line += ' ';
    line += kind_name(event.kind);
    line += ' ';
    line += event.a;
    if (!event.b.empty()) {
      line += '>';
      line += event.b;
    }
    if (event.kind == Event::Kind::deliver) {
      line += ' ';
      line += event.payload.has_value() ? spp::path_name(*event.payload)
                                        : std::string("withdraw");
    }
    line += ' ';
    line += note;
    trace_.push_back(std::move(line));
  }

  // -- state -----------------------------------------------------------------

  const SppInstance& instance_;
  const SimOptions& options_;
  const Suppression suppression_;

  std::map<std::string, std::vector<std::string>> adjacency_;
  std::map<Link, std::uint64_t> delay_;
  std::map<Link, std::uint64_t> epoch_;
  std::set<Link> down_;

  Assignment selections_;
  std::map<std::string, std::map<std::string, Path>> rib_in_;
  std::map<std::string, NodeTimer> timers_;

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
  std::priority_queue<std::pair<std::uint64_t, std::string>,
                      std::vector<std::pair<std::uint64_t, std::string>>,
                      std::greater<>>
      timer_expiry_;
};

// -- detectors ----------------------------------------------------------------

/// The PR-8 detector: canonicalise the full state after every post-churn
/// step, report the first repeat. O(steps x state-size) time and memory;
/// kept for the differential suite and the bench_sim ablation.
SimResult run_canonical(const SppInstance& instance,
                        const SimOptions& options) {
  Machine machine(instance, options);
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
/// state-hash sequence, O(1) hashing work per step. The canonical string is
/// rendered only at Brent teleports and on hash matches; a match whose
/// canonical strings differ is a collision (counted, never believed). The
/// order-free queue sum cannot see the order of same-tick deliveries, so
/// states that differ only there hash equal and collide. The pass appends
/// each post-churn hash to a log (8 bytes per step — against the canonical
/// detector's full state string per step) so that once the minimal period
/// lambda is confirmed, the first repeat can be located by scanning the
/// log: two replicas, lambda states apart, step in lockstep over the mu
/// candidates, and the leading one stops exactly where the canonical
/// detector stopped — so the reported SimResult (steps, ticks, message
/// counts, stop state) is byte-identical to the canonical detector's.
SimResult run_incremental(const SppInstance& instance,
                          const SimOptions& options,
                          std::uint64_t& collisions) {
  Machine machine(instance, options);
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
  // replica and one pair of canonical renders. On a genuine repeat the
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
    Machine tortoise(instance, options);
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

  std::uint64_t collisions = 0;
  SimResult result = options.detector == "canonical"
                         ? run_canonical(instance, options)
                         : run_incremental(instance, options, collisions);

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
