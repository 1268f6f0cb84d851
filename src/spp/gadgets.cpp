#include "spp/gadgets.h"

#include <charconv>
#include <utility>

#include "util/error.h"

namespace fsr::spp {

SppInstance good_gadget() {
  SppInstance instance("good-gadget");
  instance.add_edge("1", "0");
  instance.add_edge("2", "0");
  instance.add_edge("3", "0");
  instance.add_edge("1", "3");
  instance.add_edge("1", "2");
  instance.add_permitted_path({"1", "3", "0"});
  instance.add_permitted_path({"1", "0"});
  instance.add_permitted_path({"2", "1", "0"});
  instance.add_permitted_path({"2", "0"});
  instance.add_permitted_path({"3", "0"});
  instance.add_permitted_path({"3", "1", "0"});
  return instance;
}

SppInstance bad_gadget() {
  SppInstance instance("bad-gadget");
  instance.add_edge("1", "0");
  instance.add_edge("2", "0");
  instance.add_edge("3", "0");
  instance.add_edge("1", "2");
  instance.add_edge("2", "3");
  instance.add_edge("3", "1");
  instance.add_permitted_path({"1", "2", "0"});
  instance.add_permitted_path({"1", "0"});
  instance.add_permitted_path({"2", "3", "0"});
  instance.add_permitted_path({"2", "0"});
  instance.add_permitted_path({"3", "1", "0"});
  instance.add_permitted_path({"3", "0"});
  return instance;
}

SppInstance disagree_gadget() {
  SppInstance instance("disagree");
  instance.add_edge("1", "0");
  instance.add_edge("2", "0");
  instance.add_edge("1", "2");
  instance.add_permitted_path({"1", "2", "0"});
  instance.add_permitted_path({"1", "0"});
  instance.add_permitted_path({"2", "1", "0"});
  instance.add_permitted_path({"2", "0"});
  return instance;
}

namespace {

/// Shared topology of the Figure-3 instance: reflectors a, b, c in a
/// triangle; egress nodes d (client of a), e (of b), f (of c) each holding
/// an external route to the destination.
SppInstance figure3_topology(const std::string& name) {
  SppInstance instance(name);
  // iBGP sessions among reflectors and to clients.
  instance.add_edge("a", "b");
  instance.add_edge("b", "c");
  instance.add_edge("a", "c");
  instance.add_edge("a", "d");
  instance.add_edge("b", "e");
  instance.add_edge("c", "f");
  // External routes r1, r2, r3 as one-hop egress links.
  instance.add_edge("d", "0");
  instance.add_edge("e", "0");
  instance.add_edge("f", "0");
  return instance;
}

}  // namespace

SppInstance ibgp_figure3_gadget() {
  SppInstance instance = figure3_topology("ibgp-figure3");
  // Reflectors: each prefers the NEXT reflector's client egress over its
  // own client's — the oscillation-inducing preferences of the figure.
  instance.add_permitted_path({"a", "b", "e", "0"});  // aber2
  instance.add_permitted_path({"a", "d", "0"});       // adr1
  instance.add_permitted_path({"b", "c", "f", "0"});  // bcfr3
  instance.add_permitted_path({"b", "e", "0"});       // ber2
  instance.add_permitted_path({"c", "a", "d", "0"});  // cadr1
  instance.add_permitted_path({"c", "f", "0"});       // cfr3
  // Egress nodes: external route first, then routes via the reflectors.
  instance.add_permitted_path({"d", "0"});                 // r1
  instance.add_permitted_path({"d", "a", "b", "e", "0"});  // daber2
  instance.add_permitted_path({"d", "a", "c", "f", "0"});  // dacfr3
  instance.add_permitted_path({"e", "0"});                 // r2
  instance.add_permitted_path({"e", "b", "a", "d", "0"});  // ebadr1
  instance.add_permitted_path({"e", "b", "c", "f", "0"});  // ebcfr3
  instance.add_permitted_path({"f", "0"});                 // r3
  instance.add_permitted_path({"f", "c", "b", "e", "0"});  // fcber2
  instance.add_permitted_path({"f", "c", "a", "d", "0"});  // fcadr1
  return instance;
}

SppInstance ibgp_figure3_fixed() {
  SppInstance instance = figure3_topology("ibgp-figure3-fixed");
  // Repair: every reflector prefers its own client's egress route.
  instance.add_permitted_path({"a", "d", "0"});
  instance.add_permitted_path({"a", "b", "e", "0"});
  instance.add_permitted_path({"b", "e", "0"});
  instance.add_permitted_path({"b", "c", "f", "0"});
  instance.add_permitted_path({"c", "f", "0"});
  instance.add_permitted_path({"c", "a", "d", "0"});
  instance.add_permitted_path({"d", "0"});
  instance.add_permitted_path({"d", "a", "b", "e", "0"});
  instance.add_permitted_path({"d", "a", "c", "f", "0"});
  instance.add_permitted_path({"e", "0"});
  instance.add_permitted_path({"e", "b", "a", "d", "0"});
  instance.add_permitted_path({"e", "b", "c", "f", "0"});
  instance.add_permitted_path({"f", "0"});
  instance.add_permitted_path({"f", "c", "b", "e", "0"});
  instance.add_permitted_path({"f", "c", "a", "d", "0"});
  return instance;
}

namespace {

void append_good_gadgets(SppInstance& instance, std::int32_t first,
                         std::int32_t count) {
  for (std::int32_t k = first; k < first + count; ++k) {
    const std::string suffix = "g" + std::to_string(k);
    const std::string n1 = "1" + suffix;
    const std::string n2 = "2" + suffix;
    const std::string n3 = "3" + suffix;
    instance.add_edge(n1, "0");
    instance.add_edge(n2, "0");
    instance.add_edge(n3, "0");
    instance.add_edge(n1, n3);
    instance.add_edge(n1, n2);
    instance.add_permitted_path({n1, n3, "0"});
    instance.add_permitted_path({n1, "0"});
    instance.add_permitted_path({n2, n1, "0"});
    instance.add_permitted_path({n2, "0"});
    instance.add_permitted_path({n3, "0"});
    instance.add_permitted_path({n3, n1, "0"});
  }
}

}  // namespace

SppInstance good_gadget_chain(std::int32_t count) {
  if (count < 1) throw InvalidArgument("good_gadget_chain needs count >= 1");
  SppInstance instance("good-gadget-chain");
  append_good_gadgets(instance, 0, count);
  return instance;
}

SppInstance bad_gadget_chain(std::int32_t count) {
  if (count < 1) throw InvalidArgument("bad_gadget_chain needs count >= 1");
  SppInstance instance("bad-gadget-chain");
  // The BAD gadget proper (nodes b1/b2/b3 to keep the chain's namespace).
  instance.add_edge("b1", "0");
  instance.add_edge("b2", "0");
  instance.add_edge("b3", "0");
  instance.add_edge("b1", "b2");
  instance.add_edge("b2", "b3");
  instance.add_edge("b3", "b1");
  instance.add_permitted_path({"b1", "b2", "0"});
  instance.add_permitted_path({"b1", "0"});
  instance.add_permitted_path({"b2", "b3", "0"});
  instance.add_permitted_path({"b2", "0"});
  instance.add_permitted_path({"b3", "b1", "0"});
  instance.add_permitted_path({"b3", "0"});
  append_good_gadgets(instance, 0, count - 1);
  return instance;
}

const std::vector<std::string>& gadget_names() {
  static const std::vector<std::string> names = {
      "good",          "bad",
      "disagree",      "ibgp-figure3",
      "ibgp-figure3-fixed", "good-chain-N",
      "bad-chain-N"};
  return names;
}

SppInstance gadget_by_name(const std::string& name) {
  if (name == "good") return good_gadget();
  if (name == "bad") return bad_gadget();
  if (name == "disagree") return disagree_gadget();
  if (name == "ibgp-figure3") return ibgp_figure3_gadget();
  if (name == "ibgp-figure3-fixed") return ibgp_figure3_fixed();
  using ChainBuilder = SppInstance (*)(std::int32_t);
  constexpr std::pair<const char*, ChainBuilder> chains[] = {
      {"good-chain-", good_gadget_chain}, {"bad-chain-", bad_gadget_chain}};
  for (const auto& [prefix, build] : chains) {
    const std::string prefix_text(prefix);
    if (name.rfind(prefix_text, 0) == 0) {
      // Digits only, all of them: "bad-chain-12abc" is not bad-chain-12,
      // and an overflowing or huge count must not pin a worker.
      const char* first = name.data() + prefix_text.size();
      const char* last = name.data() + name.size();
      std::int32_t count = 0;
      const auto [end, error] = std::from_chars(first, last, count);
      if (error == std::errc() && end == last && count >= 1 &&
          count <= k_max_chain_count) {
        return build(count);
      }
    }
  }
  throw InvalidArgument("unknown gadget '" + name + "' (try --list-gadgets)");
}

}  // namespace fsr::spp
