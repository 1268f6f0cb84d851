// Golden repair corpus: the full gadget library's fsr_repair JSON,
// snapshotted under tests/golden/ and diffed byte-exactly on every run —
// any drift in the search, the ranking, the oracle verdicts, or the JSON
// rendering fails loudly here before it reaches a user.
//
// Regenerating after an INTENDED change (review the diff before
// committing!):
//
//   FSR_UPDATE_GOLDEN=1 ./build/test_golden
//
// Runs under the `golden` ctest label: `ctest -L golden`.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "repair/repair_engine.h"
#include "spp/gadgets.h"

#ifndef FSR_GOLDEN_DIR
#error "FSR_GOLDEN_DIR must point at the source tree's tests/golden"
#endif

namespace fsr::repair {
namespace {

std::vector<std::pair<std::string, spp::SppInstance>> corpus() {
  std::vector<std::pair<std::string, spp::SppInstance>> out;
  out.emplace_back("good", spp::good_gadget());
  out.emplace_back("bad", spp::bad_gadget());
  out.emplace_back("disagree", spp::disagree_gadget());
  out.emplace_back("ibgp-figure3", spp::ibgp_figure3_gadget());
  out.emplace_back("ibgp-figure3-fixed", spp::ibgp_figure3_fixed());
  for (const int length : {2, 4, 8}) {
    out.emplace_back("bad-chain-" + std::to_string(length),
                     spp::bad_gadget_chain(length));
  }
  return out;
}

TEST(GoldenRepair, ReportsMatchTheSnapshots) {
  const bool update = std::getenv("FSR_UPDATE_GOLDEN") != nullptr;
  const RepairEngine engine;  // default options = the documented behaviour
  for (const auto& [name, instance] : corpus()) {
    SCOPED_TRACE(name);
    const std::string rendered = to_json(engine.repair(instance));
    const std::string path =
        std::string(FSR_GOLDEN_DIR) + "/" + name + ".repair.json";
    if (update) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << rendered;
      continue;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden snapshot " << path
        << " — generate it with FSR_UPDATE_GOLDEN=1 ./build/test_golden";
    std::ostringstream disk;
    disk << in.rdbuf();
    EXPECT_EQ(rendered, disk.str())
        << "repair report drifted from its snapshot; if the change is "
           "intended, regenerate with FSR_UPDATE_GOLDEN=1 ./build/test_golden "
           "and review the diff";
  }
}

TEST(GoldenRepair, SnapshotsAreRepeatable) {
  // The deterministic fields are a pure function of (instance, options):
  // re-running the corpus is byte-identical (the golden diff's
  // precondition).
  const RepairEngine engine;
  for (const auto& [name, instance] : corpus()) {
    EXPECT_EQ(to_json(engine.repair(instance)),
              to_json(engine.repair(instance)))
        << name;
  }
}

}  // namespace
}  // namespace fsr::repair
