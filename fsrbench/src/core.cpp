#include "core.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "api/json.h"

namespace fsrbench {

// ------------------------------------------------------------ randomness --

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % span);
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double duration_s) {
  Rng rng(seed);
  std::vector<double> offsets;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration_s) break;
    offsets.push_back(t);
  }
  return offsets;
}

Zipf::Zipf(std::size_t n, double s) {
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

// ----------------------------------------------------------- statistics --

std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest value with at least p*n samples at or below.
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> sliced_percentile(const std::vector<double>& samples, double p,
                                        std::size_t slices) {
  std::vector<double> values;
  for (std::size_t s = 0; s < slices; ++s) {
    const std::vector<double> part(
        samples.begin() + static_cast<std::ptrdiff_t>(samples.size() * s / slices),
        samples.begin() + static_cast<std::ptrdiff_t>(samples.size() * (s + 1) / slices));
    const std::optional<double> value = percentile(part, p);
    if (!value.has_value()) return std::nullopt;
    values.push_back(*value);
  }
  return median(values);
}

// ------------------------------------------------------------ workloads --

const ServeWorkload& serve_hot() {
  static const ServeWorkload workload{
      "serve-hot", 5000.0, 10.0, 16,
      {{"ground-truth", 0.99}, {"repair", 0.01}}};
  return workload;
}

const ServeWorkload& serve_cold() {
  // The kind mix is the one the campaign workload produces, measured over
  // campaign seeds 1-20 of `fsr_campaign --source all --simulate --repair`
  // on the code this benchmark was written against: 678 safety, 380
  // simulation and 160 emulation scenarios (deduplicated ones left out)
  // and 310 repairs, 309 of them verified, each verification one
  // ground-truth check; shares of the 1837, rounded to a thousandth.
  static const ServeWorkload workload{"serve-cold",
                                      250.0,
                                      100.0,
                                      2,
                                      {{"analyze-safety", 0.369},
                                       {"simulate", 0.207},
                                       {"repair", 0.169},
                                       {"ground-truth", 0.168},
                                       {"emulate", 0.087}}};
  return workload;
}

const ServeWorkload* serve_workload(const std::string& name) {
  if (name == serve_hot().name) return &serve_hot();
  if (name == serve_cold().name) return &serve_cold();
  return nullptr;
}

std::string wire_line(const GenRequest& request, std::uint64_t id) {
  return "{\"id\": " + std::to_string(id) + ", " + request.body + "}\n";
}

const std::vector<std::string>& hot_gadgets() {
  static const std::vector<std::string> gadgets = {
      "bad",          "disagree",    "good",         "ibgp-figure3",
      "good-chain-2", "bad-chain-2", "good-chain-3", "bad-chain-3",
      "good-chain-4", "bad-chain-4", "good-chain-6", "bad-chain-6"};
  return gadgets;
}

std::optional<std::size_t> gadget_stable_count(const std::string& gadget) {
  // A BAD gadget has no stable assignment and poisons any chain holding
  // it; GOOD has exactly one, as does a chain of GOOD gadgets; DISAGREE
  // has two (Griffin, Shepherd and Wilfong).
  if (gadget == "good") return 1;
  if (gadget == "bad" || gadget == "ibgp-figure3") return 0;
  if (gadget == "disagree") return 2;
  if (gadget.rfind("good-chain-", 0) == 0) return 1;
  if (gadget.rfind("bad-chain-", 0) == 0) return 0;
  return std::nullopt;
}

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  out += text;
  out += '"';
  return out;
}

const std::string& draw_kind(const ServeWorkload& workload, Rng& rng) {
  double u = rng.uniform();
  for (const KindShare& share : workload.mix) {
    if (u < share.share) return share.kind;
    u -= share.share;
  }
  return workload.mix.back().kind;
}

GenRequest gadget_request(const std::string& gadget, const std::string& kind) {
  GenRequest request;
  request.kind = kind;
  request.body = "\"kind\": " + quoted(kind) + ", \"gadget\": " + quoted(gadget);
  // Repairs draw SPVP trials from a seed; a fixed one keeps every repair of
  // a gadget the same request, so warm sessions answer it.
  if (kind == "repair") request.body += ", \"seed\": 1";
  if (kind == "ground-truth") request.expect.stable_count = gadget_stable_count(gadget);
  return request;
}

void enumerate_paths(const std::map<std::string, std::vector<std::string>>& adj,
                     std::vector<std::string>& prefix, std::size_t max_edges,
                     std::vector<std::vector<std::string>>& out) {
  if (out.size() >= 64) return;
  const std::string& at = prefix.back();
  if (at == "0") {
    out.push_back(prefix);
    return;
  }
  if (prefix.size() > max_edges) return;
  const auto it = adj.find(at);
  if (it == adj.end()) return;
  for (const std::string& next : it->second) {
    if (std::find(prefix.begin(), prefix.end(), next) != prefix.end()) continue;
    prefix.push_back(next);
    enumerate_paths(adj, prefix, max_edges, out);
    prefix.pop_back();
  }
}

}  // namespace

std::string random_spp_json(Rng& rng, int nodes, const std::string& name) {
  std::vector<std::string> names;
  for (int i = 1; i <= nodes; ++i) {
    // Appended, not `"n" + ...`: GCC 12 misreports that form (-Wrestrict).
    std::string node = "n";
    node += std::to_string(i);
    names.push_back(std::move(node));
  }
  std::map<std::string, std::vector<std::string>> adj;
  std::set<std::pair<std::string, std::string>> seen;
  std::string edges;
  const auto connect = [&](const std::string& u, const std::string& v) {
    if (!seen.insert({std::min(u, v), std::max(u, v)}).second) return;
    adj[u].push_back(v);
    adj[v].push_back(u);
    edges += edges.empty() ? "[" : ", [";
    edges += quoted(u);
    edges += ", ";
    edges += quoted(v);
    edges += "]";
  };
  // A random tree rooted at the destination keeps every node reachable;
  // about two extra edges per node give the path diversity that makes
  // ranking conflicts, and so interesting verdicts, possible.
  for (int i = 0; i < nodes; ++i) {
    const bool to_destination = i == 0 || rng.chance(0.4);
    connect(names[i], to_destination
                          ? std::string("0")
                          : names[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
  }
  const double extra = 2.0 / nodes;
  for (int i = 0; i < nodes; ++i) {
    for (int j = i + 1; j < nodes; ++j) {
      if (rng.chance(extra)) connect(names[i], names[j]);
    }
  }
  std::string paths;
  for (const std::string& node : names) {
    std::vector<std::vector<std::string>> candidates;
    std::vector<std::string> prefix = {node};
    enumerate_paths(adj, prefix, 5, candidates);
    if (candidates.empty()) {
      enumerate_paths(adj, prefix, static_cast<std::size_t>(nodes) + 1, candidates);
    }
    for (std::size_t i = candidates.size(); i > 1; --i) {
      std::swap(candidates[i - 1],
                candidates[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    candidates.resize(std::min<std::size_t>(candidates.size(), 3));
    for (const auto& path : candidates) {
      if (!paths.empty()) paths += ", ";
      paths += "[";
      for (std::size_t h = 0; h < path.size(); ++h) {
        if (h > 0) paths += ", ";
        paths += quoted(path[h]);
      }
      paths += "]";
    }
  }
  return "{\"name\": " + quoted(name) + ", \"destination\": \"0\", \"edges\": [" +
         edges + "], \"paths\": [" + paths + "]}";
}

StreamGenerator::StreamGenerator(const ServeWorkload& workload,
                                 std::uint64_t seed)
    : workload_(workload), rng_(seed), zipf_(hot_gadgets().size(), 1.0) {}

GenRequest StreamGenerator::next() {
  const std::string kind = draw_kind(workload_, rng_);
  if (&workload_ == &serve_hot()) {
    return gadget_request(hot_gadgets()[zipf_.sample(rng_)], kind);
  }
  Rng instance_rng = rng_.fork();
  const int nodes = static_cast<int>(instance_rng.uniform_int(8, 40));
  GenRequest request;
  request.kind = kind;
  request.body = "\"kind\": " + quoted(kind) + ", \"spp\": " +
                 random_spp_json(instance_rng, nodes, "cold-" + std::to_string(counter_++));
  if (kind == "repair" || kind == "simulate" || kind == "emulate") {
    request.body += ", \"seed\": " + std::to_string(instance_rng.next() % 1000000);
  }
  return request;
}

std::vector<GenRequest> StreamGenerator::priming_set(const ServeWorkload& workload) {
  std::vector<GenRequest> set;
  if (&workload == &serve_hot()) {
    for (const std::string& gadget : hot_gadgets()) {
      for (const KindShare& share : workload.mix) {
        set.push_back(gadget_request(gadget, share.kind));
      }
    }
    return set;
  }
  // Set-up work is the same for every seed, so seeds vary only the
  // measured phases; its seed is one the measured streams never start from.
  StreamGenerator priming(workload, 0x5052494d494e47ULL);  // "PRIMING"
  for (int i = 0; i < 256; ++i) set.push_back(priming.next());
  return set;
}

std::vector<GenRequest> phase_requests(const ServeWorkload& workload, std::uint64_t seed,
                                       std::uint64_t population, std::size_t count) {
  const bool hot = &workload == &serve_hot();
  StreamGenerator stream(workload, hot ? seed ^ population : population);
  std::vector<GenRequest> requests;
  for (std::size_t i = 0; i < count; ++i) requests.push_back(stream.next());
  if (!hot) {
    Rng order(seed);
    for (std::size_t i = requests.size(); i > 1; --i) {
      std::swap(requests[i - 1], requests[static_cast<std::size_t>(order.uniform_int(
                                     0, static_cast<std::int64_t>(i) - 1))]);
    }
  }
  return requests;
}

// -------------------------------------------------------------- checker --

std::string with_id(const std::string& template_line, std::uint64_t id) {
  static const std::string prefix = "{\"id\": 0";
  if (template_line.compare(0, prefix.size(), prefix) != 0) return template_line;
  return "{\"id\": " + std::to_string(id) + template_line.substr(prefix.size());
}

std::string compare_response(const std::string& line, std::uint64_t id,
                             const std::string& expected_template) {
  const std::string expected = with_id(expected_template, id);
  if (line == expected) return {};
  std::size_t at = 0;
  while (at < line.size() && at < expected.size() && line[at] == expected[at]) ++at;
  return "response " + std::to_string(id) + " differs from the reference at byte " +
         std::to_string(at);
}

std::string check_semantics(const std::string& line, const std::string& kind,
                            const Expectation& expect) {
  using fsr::api::json::Value;
  try {
    const Value body = fsr::api::json::parse(line);
    if (const Value* error = body.find("error")) {
      return "error response: " + error->as_string("error");
    }
    const Value* kind_value = body.find("kind");
    if (kind_value == nullptr || kind_value->as_string("kind") != kind) {
      return "response kind is not " + kind;
    }
    const auto flag = [](const Value& object, const char* key) {
      const Value* value = object.find(key);
      return value != nullptr && value->as_bool(key);
    };
    if (kind == "ground-truth") {
      const Value* truth = body.find("ground_truth");
      if (truth == nullptr || !flag(*truth, "decided")) return "ground truth undecided";
      const std::uint64_t count = truth->find("count")->as_u64("count");
      if (flag(*truth, "has_stable") != (count > 0)) return "has_stable contradicts count";
      if (expect.stable_count.has_value() && flag(*truth, "count_exact") &&
          count != *expect.stable_count) {
        return "stable-assignment count " + std::to_string(count) + ", expected " +
               std::to_string(*expect.stable_count);
      }
      const std::optional<bool> has_stable =
          expect.stable_count.has_value() ? std::optional<bool>(*expect.stable_count > 0)
                                          : expect.has_stable;
      if (has_stable.has_value() && *has_stable != (count > 0)) {
        return "wrong stable-assignment verdict";
      }
    } else if (kind == "simulate") {
      const Value* sim = body.find("sim");
      if (sim == nullptr) return "simulate response without sim";
      const int outcomes = flag(*sim, "converged") + flag(*sim, "oscillating") +
                           flag(*sim, "cutoff");
      if (outcomes != 1) return "sim outcome flags not exactly one";
      if (flag(*sim, "converged") && !flag(*sim, "fixed_point_stable")) {
        return "converged to an unstable fixed point";
      }
    } else if (kind == "repair") {
      const Value* repair = body.find("repair");
      if (repair == nullptr) return "repair response without repair";
      if (flag(*repair, "repaired")) {
        bool verified = false;
        for (const Value& candidate : repair->find("repairs")->as_array("repairs")) {
          const std::string& truth = candidate.find("ground_truth")->as_string("gt");
          if (truth == "failed") return "repair candidate failed ground truth";
          verified = verified || truth == "verified";
        }
        if (!verified) return "repaired without a verified repair";
      }
    } else if (kind == "analyze-safety") {
      const Value* safety = body.find("safety");
      if (safety == nullptr) return "safety response without safety";
      const std::string& verdict = safety->find("verdict")->as_string("verdict");
      if (verdict != "safe" && verdict != "not_provably_safe") return "unknown verdict";
      // A safe verdict means the strict-monotonicity check held.
      bool strict_holds = false;
      for (const Value& check : safety->find("checks")->as_array("checks")) {
        if (check.find("mode")->as_string("mode") == "strict") {
          strict_holds = flag(check, "holds");
        }
      }
      if ((verdict == "safe") != strict_holds) return "verdict contradicts its checks";
    } else if (kind == "emulate") {
      const Value* emulation = body.find("emulation");
      if (emulation == nullptr) return "emulate response without emulation";
    }
  } catch (const std::exception& error) {
    return std::string("unparseable response: ") + error.what();
  }
  return {};
}

}  // namespace fsrbench
