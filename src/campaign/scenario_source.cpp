#include "campaign/scenario_source.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "algebra/standard_policies.h"
#include "spp/gadgets.h"
#include "topology/as_hierarchy.h"
#include "topology/rocketfuel.h"
#include "util/error.h"

namespace fsr::campaign {
namespace {

Scenario make_scenario(std::string source, std::string id, ScenarioKind kind,
                       std::uint64_t campaign_seed, std::uint64_t ordinal) {
  Scenario scenario;
  scenario.source = std::move(source);
  scenario.id = std::move(id);
  scenario.kind = kind;
  scenario.seed = derive_scenario_seed(campaign_seed, scenario.id, ordinal);
  return scenario;
}

/// The preference rule shared with proto/reference_pv's aggregate: `a`
/// outranks `b` when the algebra strictly prefers it, or when they are
/// equal/incomparable and `a` is structurally smaller — a deterministic
/// total refinement of the algebra's partial order. Paths are node-id
/// sequences whose id order is name order, so the structural order is the
/// (signature, node names) order.
bool outranks(const algebra::RoutingAlgebra& alg,
              const std::pair<algebra::Value, std::vector<std::uint32_t>>& a,
              const std::pair<algebra::Value, std::vector<std::uint32_t>>& b) {
  const algebra::Ordering order = alg.compare(a.first, b.first);
  if (order == algebra::Ordering::better) return true;
  if (order == algebra::Ordering::worse) return false;
  return a < b;
}

class GadgetSource final : public ScenarioSource {
 public:
  explicit GadgetSource(GadgetSweep sweep) : sweep_(std::move(sweep)) {}

  const std::string& name() const noexcept override { return name_; }

  std::vector<Scenario> generate(std::uint64_t campaign_seed,
                                 std::uint64_t ordinal_base) const override {
    std::vector<Scenario> out;
    const auto add = [&](spp::SppInstance instance, ScenarioKind kind) {
      const std::string suffix = kind == ScenarioKind::emulation
                                     ? "(emulated)"
                                 : kind == ScenarioKind::simulation
                                     ? "(simulated)"
                                     : "";
      Scenario scenario =
          make_scenario(name_, name_ + "/" + instance.name() + suffix, kind,
                        campaign_seed, ordinal_base + out.size());
      scenario.spp =
          std::make_shared<const spp::SppInstance>(std::move(instance));
      out.push_back(std::move(scenario));
    };
    add(spp::good_gadget(), ScenarioKind::safety);
    add(spp::bad_gadget(), ScenarioKind::safety);
    add(spp::disagree_gadget(), ScenarioKind::safety);
    add(spp::ibgp_figure3_gadget(), ScenarioKind::safety);
    add(spp::ibgp_figure3_fixed(), ScenarioKind::safety);
    for (const std::int32_t length : sweep_.chain_lengths) {
      spp::SppInstance chain = spp::good_gadget_chain(length);
      Scenario scenario = make_scenario(
          name_, name_ + "/" + chain.name() + "x" + std::to_string(length),
          ScenarioKind::safety, campaign_seed, ordinal_base + out.size());
      scenario.spp = std::make_shared<const spp::SppInstance>(std::move(chain));
      out.push_back(std::move(scenario));
    }
    if (sweep_.include_emulations) {
      add(spp::good_gadget(), ScenarioKind::emulation);
      add(spp::disagree_gadget(), ScenarioKind::emulation);
      add(spp::ibgp_figure3_fixed(), ScenarioKind::emulation);
    }
    if (sweep_.include_simulations) {
      // Unlike the emulation list, the unsafe gadgets are deliberately in:
      // BAD's oscillation (and DISAGREE's seed-dependent races) are the
      // whole point of the simulation axis.
      add(spp::good_gadget(), ScenarioKind::simulation);
      add(spp::bad_gadget(), ScenarioKind::simulation);
      add(spp::disagree_gadget(), ScenarioKind::simulation);
      add(spp::ibgp_figure3_gadget(), ScenarioKind::simulation);
      add(spp::ibgp_figure3_fixed(), ScenarioKind::simulation);
    }
    return out;
  }

 private:
  std::string name_ = "gadgets";
  GadgetSweep sweep_;
};

class RocketfuelSource final : public ScenarioSource {
 public:
  explicit RocketfuelSource(RocketfuelSweep sweep) : sweep_(std::move(sweep)) {}

  const std::string& name() const noexcept override { return name_; }

  std::vector<Scenario> generate(std::uint64_t campaign_seed,
                                 std::uint64_t ordinal_base) const override {
    std::vector<Scenario> out;
    for (const std::uint64_t seed : sweep_.seeds) {
      for (const bool embed : sweep_.embeddings) {
        for (const std::int32_t paths : sweep_.paths_per_egress) {
          topology::RocketfuelParams params;
          params.seed = seed;
          params.embed_gadget = embed;
          params.paths_per_egress = paths;
          topology::IbgpExperiment experiment =
              topology::build_rocketfuel_ibgp(params);
          const std::string id = name_ + "/seed" + std::to_string(seed) +
                                 (embed ? "+gadget" : "+clean") + "-ppe" +
                                 std::to_string(paths);
          Scenario scenario =
              make_scenario(name_, id, ScenarioKind::safety, campaign_seed,
                            ordinal_base + out.size());
          scenario.spp = std::make_shared<const spp::SppInstance>(
              std::move(experiment.instance));
          if (sweep_.include_simulations) {
            // The simulation variant shares the safety scenario's extracted
            // instance (same shared payload, distinct scenario seed); the
            // gadget-embedded members are the real-topology oscillation
            // workload.
            Scenario sim = make_scenario(name_, id + "(simulated)",
                                         ScenarioKind::simulation,
                                         campaign_seed,
                                         ordinal_base + out.size() + 1);
            sim.spp = scenario.spp;
            out.push_back(std::move(scenario));
            out.push_back(std::move(sim));
          } else {
            out.push_back(std::move(scenario));
          }
        }
      }
    }
    return out;
  }

 private:
  std::string name_ = "rocketfuel";
  RocketfuelSweep sweep_;
};

class AsHierarchySource final : public ScenarioSource {
 public:
  explicit AsHierarchySource(AsHierarchySweep sweep)
      : sweep_(std::move(sweep)) {}

  const std::string& name() const noexcept override { return name_; }

  std::vector<Scenario> generate(std::uint64_t campaign_seed,
                                 std::uint64_t ordinal_base) const override {
    std::vector<Scenario> out;
    struct SchemeChoice {
      topology::LabelScheme scheme;
      const char* tag;
    };
    std::vector<SchemeChoice> schemes;
    if (sweep_.include_business) {
      schemes.push_back({topology::LabelScheme::business, "gr-a"});
    }
    if (sweep_.include_business_hop_count) {
      schemes.push_back(
          {topology::LabelScheme::business_hop_count, "gr-a-hops"});
    }
    for (const std::int32_t depth : sweep_.depths) {
      for (const std::uint64_t seed : sweep_.seeds) {
        for (const SchemeChoice& choice : schemes) {
          topology::AsHierarchyParams params;
          params.depth = depth;
          params.seed = seed;
          topology::Topology topo =
              topology::generate_as_hierarchy(params, choice.scheme);
          const std::string id = name_ + "/depth" + std::to_string(depth) +
                                 "-seed" + std::to_string(seed) + "-" +
                                 choice.tag;
          Scenario scenario =
              make_scenario(name_, id, ScenarioKind::emulation, campaign_seed,
                            ordinal_base + out.size());
          scenario.algebra =
              choice.scheme == topology::LabelScheme::business
                  ? algebra::gao_rexford_guideline_a()
                  : algebra::gao_rexford_with_hop_count();
          if (sweep_.include_simulations) {
            // The simulator speaks SPP, not annotated topologies: extract
            // a concrete instance under the same policy before the
            // topology payload is moved into the emulation scenario.
            const std::int32_t max_edges =
                sweep_.sim_max_path_edges > 0 ? sweep_.sim_max_path_edges
                                              : depth + 4;
            spp::SppInstance extracted = spp_from_topology(
                topo.name, topo, *scenario.algebra, max_edges,
                static_cast<std::size_t>(sweep_.sim_max_candidates),
                static_cast<std::size_t>(sweep_.sim_paths_per_node));
            Scenario sim = make_scenario(name_, id + "(simulated)",
                                         ScenarioKind::simulation,
                                         campaign_seed,
                                         ordinal_base + out.size() + 1);
            sim.spp = std::make_shared<const spp::SppInstance>(
                std::move(extracted));
            scenario.topology =
                std::make_shared<const topology::Topology>(std::move(topo));
            out.push_back(std::move(scenario));
            out.push_back(std::move(sim));
          } else {
            scenario.topology =
                std::make_shared<const topology::Topology>(std::move(topo));
            out.push_back(std::move(scenario));
          }
        }
      }
    }
    return out;
  }

 private:
  std::string name_ = "as-hierarchy";
  AsHierarchySweep sweep_;
};

class RandomSppSource final : public ScenarioSource {
 public:
  explicit RandomSppSource(spp::RandomSppSweep sweep)
      : sweep_(std::move(sweep)) {}

  const std::string& name() const noexcept override { return name_; }

  std::vector<Scenario> generate(std::uint64_t campaign_seed,
                                 std::uint64_t ordinal_base) const override {
    std::vector<Scenario> out;
    for (std::int32_t i = 0; i < sweep_.count; ++i) {
      const std::string id = name_ + "/instance" + std::to_string(i);
      Scenario scenario = make_scenario(name_, id, ScenarioKind::safety,
                                        campaign_seed, ordinal_base + out.size());
      // The generation seed IS the scenario seed, so the instance is a
      // pure function of (campaign seed, id, ordinal).
      scenario.spp = std::make_shared<const spp::SppInstance>(
          spp::random_spp_instance("random-spp-" + std::to_string(i),
                                   scenario.seed, sweep_));
      out.push_back(std::move(scenario));
    }
    return out;
  }

 private:
  std::string name_ = "random-spp";
  spp::RandomSppSweep sweep_;
};

class StandardPolicySource final : public ScenarioSource {
 public:
  const std::string& name() const noexcept override { return name_; }

  std::vector<Scenario> generate(std::uint64_t campaign_seed,
                                 std::uint64_t ordinal_base) const override {
    const std::set<std::int64_t> classes = {10, 100, 1000};
    std::vector<Scenario> out;
    const auto add = [&](algebra::AlgebraPtr algebra) {
      Scenario scenario =
          make_scenario(name_, name_ + "/" + algebra->name(),
                        ScenarioKind::safety, campaign_seed,
                        ordinal_base + out.size());
      scenario.algebra = std::move(algebra);
      out.push_back(std::move(scenario));
    };
    add(algebra::gao_rexford_guideline_a());
    add(algebra::gao_rexford_guideline_b());
    add(algebra::backup_routing());
    add(algebra::bandwidth_classes(classes));
    add(algebra::widest_shortest(classes));
    add(algebra::gao_rexford_with_hop_count());
    return out;
  }

 private:
  std::string name_ = "policies";
};

class RepairTargetSource final : public ScenarioSource {
 public:
  explicit RepairTargetSource(RepairTargetSweep sweep)
      : sweep_(std::move(sweep)) {}

  const std::string& name() const noexcept override { return name_; }

  std::vector<Scenario> generate(std::uint64_t campaign_seed,
                                 std::uint64_t ordinal_base) const override {
    std::vector<Scenario> out;
    const auto add = [&](spp::SppInstance instance, const std::string& id) {
      Scenario scenario = make_scenario(name_, name_ + "/" + id,
                                        ScenarioKind::safety, campaign_seed,
                                        ordinal_base + out.size());
      scenario.spp =
          std::make_shared<const spp::SppInstance>(std::move(instance));
      out.push_back(std::move(scenario));
    };
    add(spp::bad_gadget(), "bad");
    add(spp::disagree_gadget(), "disagree");
    add(spp::ibgp_figure3_gadget(), "ibgp-figure3");
    for (const std::int32_t length : sweep_.bad_chain_lengths) {
      add(spp::bad_gadget_chain(length),
          "bad-chain-x" + std::to_string(length));
    }
    spp::RandomSppSweep fuzz;
    fuzz.extra_edge_probability = 0.5;
    fuzz.paths_per_node = 4;
    for (std::int32_t i = 0; i < sweep_.random_count; ++i) {
      const std::string id = name_ + "/fuzz" + std::to_string(i);
      Scenario scenario = make_scenario(name_, id, ScenarioKind::safety,
                                        campaign_seed,
                                        ordinal_base + out.size());
      scenario.spp = std::make_shared<const spp::SppInstance>(
          spp::random_spp_instance("repair-fuzz-" + std::to_string(i),
                                   scenario.seed, fuzz));
      out.push_back(std::move(scenario));
    }
    return out;
  }

 private:
  std::string name_ = "repair-targets";
  RepairTargetSweep sweep_;
};

}  // namespace

spp::SppInstance spp_from_topology(std::string name,
                                   const topology::Topology& topology,
                                   const algebra::RoutingAlgebra& algebra,
                                   std::int32_t max_path_edges,
                                   std::size_t max_candidates,
                                   std::size_t paths_per_node) {
  spp::SppInstance instance(std::move(name), topology.destination);
  // Dense node ids in sorted-name order, so comparing ids compares names:
  // the neighbour tie-break and the structural path order below need no
  // strings, and names are built only for the paths that are kept.
  std::vector<std::string> names = topology.nodes;
  names.push_back(topology.destination);
  for (const topology::TopoLink& link : topology.links) {
    names.push_back(link.u);
    names.push_back(link.v);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::unordered_map<std::string_view, std::uint32_t> id_of;
  for (std::uint32_t id = 0; id < names.size(); ++id) {
    id_of.emplace(names[id], id);
  }
  const std::uint32_t destination = id_of.at(topology.destination);

  // node -> (neighbour, node's label towards it): the label rides along
  // the adjacency, so folding a path never searches the link list.
  struct Neighbour {
    std::uint32_t node;
    const algebra::Value* label;
  };
  std::vector<std::vector<Neighbour>> adjacency(names.size());
  for (const topology::TopoLink& link : topology.links) {
    if (instance.has_edge(link.u, link.v)) continue;  // parallel links: first wins
    instance.add_edge(link.u, link.v);
    const std::uint32_t u = id_of.at(link.u);
    const std::uint32_t v = id_of.at(link.v);
    adjacency[u].push_back({v, &link.label_uv});
    adjacency[v].push_back({u, &link.label_vu});
  }

  // BFS hop distances to the destination: the enumerator only follows
  // edges that can still complete within the length budget, so the DFS
  // never wanders into branches with no destination in reach — without
  // this, top-tier nodes of a deep hierarchy explore exponentially many
  // dead ends before the candidate cap bites.
  constexpr auto k_unreachable = std::numeric_limits<std::int32_t>::max();
  std::vector<std::int32_t> dist(names.size(), k_unreachable);
  dist[destination] = 0;
  std::vector<std::uint32_t> frontier = {destination};
  while (!frontier.empty()) {
    std::vector<std::uint32_t> next_frontier;
    for (const std::uint32_t here : frontier) {
      for (const Neighbour& next : adjacency[here]) {
        if (dist[next.node] != k_unreachable) continue;
        dist[next.node] = dist[here] + 1;
        next_frontier.push_back(next.node);
      }
    }
    frontier = std::move(next_frontier);
  }
  // Destination-ward neighbour order (ties by name, unreachable last): the
  // DFS dives straight towards the destination before spending budget on
  // detours. Without this the step budget can drain inside a subtree that
  // cannot complete any path — e.g. a stub destination's single provider
  // exploring the whole core first — and "nearest neighbour first" keeps
  // which paths get found independent of link declaration order.
  for (std::vector<Neighbour>& neighbours : adjacency) {
    std::sort(neighbours.begin(), neighbours.end(),
              [&](const Neighbour& a, const Neighbour& b) {
                if (dist[a.node] != dist[b.node]) {
                  return dist[a.node] < dist[b.node];
                }
                return a.node < b.node;
              });
  }

  std::vector<char> on_path(names.size(), 0);
  std::vector<const Neighbour*> hops;  // the DFS prefix after its source
  for (const std::string& node : topology.nodes) {
    if (node == topology.destination) continue;
    const std::uint32_t source = id_of.at(node);
    std::vector<std::vector<const Neighbour*>> candidates;
    // Guided DFS: extend only along edges whose endpoint can still reach
    // the destination within the remaining edge budget. The step budget is
    // a deterministic backstop against pathological path diversity.
    std::size_t steps_left = 64 * max_candidates;
    const auto dfs = [&](const auto& self, std::uint32_t here) -> void {
      if (candidates.size() >= max_candidates || steps_left == 0) return;
      --steps_left;
      if (here == destination) {
        candidates.push_back(hops);
        return;
      }
      const auto used = static_cast<std::int32_t>(hops.size());
      for (const Neighbour& next : adjacency[here]) {
        if (dist[next.node] == k_unreachable ||
            used + 1 + dist[next.node] > max_path_edges || on_path[next.node]) {
          continue;
        }
        on_path[next.node] = 1;
        hops.push_back(&next);
        self(self, next.node);
        hops.pop_back();
        on_path[next.node] = 0;
      }
    };
    on_path[source] = 1;
    dfs(dfs, source);
    on_path[source] = 0;
    // Fold each candidate through the algebra exactly as
    // proto::path_signature does — origination on the destination-adjacent
    // link, combined_extend outward to the source; phi paths (e.g. valley
    // violations under Gao-Rexford export rules) drop out here, exactly as
    // they would never be advertised by the protocol.
    std::vector<std::pair<algebra::Value, std::vector<std::uint32_t>>> ranked;
    ranked.reserve(candidates.size());
    for (const std::vector<const Neighbour*>& path : candidates) {
      std::optional<algebra::Value> sig =
          algebra.originate(*path.back()->label);
      for (std::size_t i = path.size() - 1; i-- > 0 && sig.has_value();) {
        sig = algebra.combined_extend(*path[i]->label, *sig);
      }
      if (!sig.has_value()) continue;
      std::vector<std::uint32_t> ids = {source};
      for (const Neighbour* hop : path) ids.push_back(hop->node);
      ranked.emplace_back(std::move(*sig), std::move(ids));
    }
    // Repeated best-pick under the shared preference rule instead of a
    // comparison sort: algebra::compare is a partial order, which is not a
    // strict weak ordering, so std::sort would be undefined on it.
    const std::size_t keep = std::min(paths_per_node, ranked.size());
    for (std::size_t i = 0; i < keep; ++i) {
      std::size_t best = i;
      for (std::size_t j = i + 1; j < ranked.size(); ++j) {
        if (outranks(algebra, ranked[j], ranked[best])) best = j;
      }
      std::swap(ranked[i], ranked[best]);
      spp::Path path;
      for (const std::uint32_t id : ranked[i].second) path.push_back(names[id]);
      instance.add_permitted_path(path);
    }
  }
  return instance;
}

std::unique_ptr<ScenarioSource> gadget_source(GadgetSweep sweep) {
  return std::make_unique<GadgetSource>(std::move(sweep));
}

std::unique_ptr<ScenarioSource> rocketfuel_source(RocketfuelSweep sweep) {
  return std::make_unique<RocketfuelSource>(std::move(sweep));
}

std::unique_ptr<ScenarioSource> as_hierarchy_source(AsHierarchySweep sweep) {
  return std::make_unique<AsHierarchySource>(std::move(sweep));
}

std::unique_ptr<ScenarioSource> random_spp_source(spp::RandomSppSweep sweep) {
  return std::make_unique<RandomSppSource>(std::move(sweep));
}

std::unique_ptr<ScenarioSource> standard_policy_source() {
  return std::make_unique<StandardPolicySource>();
}

std::unique_ptr<ScenarioSource> repair_target_source(RepairTargetSweep sweep) {
  return std::make_unique<RepairTargetSource>(std::move(sweep));
}

const std::vector<std::string>& builtin_source_names() {
  static const std::vector<std::string> names = {
      "gadgets",  "rocketfuel",     "as-hierarchy",
      "random-spp", "policies", "repair-targets"};
  return names;
}

std::unique_ptr<ScenarioSource> make_builtin_source(
    const std::string& name, bool include_emulations,
    bool include_simulations,
    const std::vector<std::int32_t>& hierarchy_depths) {
  if (name == "gadgets") {
    GadgetSweep sweep;
    sweep.include_emulations = include_emulations;
    sweep.include_simulations = include_simulations;
    return gadget_source(std::move(sweep));
  }
  if (name == "rocketfuel") {
    RocketfuelSweep sweep;
    sweep.include_simulations = include_simulations;
    return rocketfuel_source(std::move(sweep));
  }
  if (name == "as-hierarchy") {
    AsHierarchySweep sweep;
    sweep.include_simulations = include_simulations;
    if (!hierarchy_depths.empty()) sweep.depths = hierarchy_depths;
    return as_hierarchy_source(std::move(sweep));
  }
  if (name == "random-spp") return random_spp_source();
  if (name == "policies") return standard_policy_source();
  if (name == "repair-targets") return repair_target_source();
  throw InvalidArgument("unknown scenario source '" + name +
                        "' (available: gadgets, rocketfuel, as-hierarchy, "
                        "random-spp, policies, repair-targets)");
}

}  // namespace fsr::campaign
