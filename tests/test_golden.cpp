/// Golden results: the smoke sweeps must simulate exactly what the dumps
/// checked in under tests/golden/ hold. The five NoC sweeps cover immediate
/// ring links, zero and delayed credit returns, edge-registered mesh links
/// and all four routing policies. The six crossbar sweeps cover one and two
/// hog or W-stalling attackers, W-reservation stalls with the write buffer
/// off, budgets, fragmentation down to one beat, throttling, regulation
/// periods and a random victim. So a change to any fabric that moves a
/// simulated field fails here. Tick counters are kernel fields and are not
/// compared. A change that means to move these results rewrites the files
/// with `scenario_sweep NAME --threads 1 --json tests/golden/NAME.json` and
/// says so.
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

#include "same_result.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace realm::scenario {
namespace {

void expect_matches_golden(const std::string& name) {
    const Sweep sweep = make_sweep(name);
    const auto golden = load_json_results(std::string{REALM_GOLDEN_DIR} + "/" + name + ".json");
    // A missing file loads as empty, so the count is checked first.
    ASSERT_EQ(golden.size(), sweep.points.size()) << name;
    const std::vector<ScenarioResult> fresh =
        ScenarioRunner{RunnerOptions{.threads = 4}}.run(sweep);
    ASSERT_EQ(fresh.size(), sweep.points.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        const auto it = golden.find(config_hash(sweep.points[i].config));
        ASSERT_NE(it, golden.end()) << name << ": no golden for " << fresh[i].label;
        EXPECT_TRUE(test::same_result(it->second, test::as_dumped(fresh[i]),
                                      FieldKind::kKernel))
            << name << ": " << fresh[i].label;
    }
}

TEST(NocGolden, RingDosSmoke) { expect_matches_golden("ring-dos-smoke"); }
TEST(NocGolden, RingCreditDosSmoke) { expect_matches_golden("ring-credit-dos-smoke"); }
TEST(NocGolden, MeshDosSmoke) { expect_matches_golden("mesh-dos-smoke"); }
TEST(NocGolden, MeshCreditDosSmoke) { expect_matches_golden("mesh-credit-dos-smoke"); }
TEST(NocGolden, MeshRoutingDosSmoke) { expect_matches_golden("mesh-routing-dos-smoke"); }

TEST(XbarGolden, XbarDosSmoke) { expect_matches_golden("xbar-dos-smoke"); }
TEST(XbarGolden, Fig6b) { expect_matches_golden("fig6b"); }
TEST(XbarGolden, AblationDos) { expect_matches_golden("ablation-dos"); }
TEST(XbarGolden, AblationThrottle) { expect_matches_golden("ablation-throttle"); }
TEST(XbarGolden, AblationPeriod) { expect_matches_golden("ablation-period"); }
TEST(XbarGolden, RandomMix) { expect_matches_golden("random-mix"); }

} // namespace
} // namespace realm::scenario
