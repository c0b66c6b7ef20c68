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
/// says so. A change that moves only `config_hash` (a config layout change)
/// rewrites only each point's `"config_hash"` value, old hash to new by
/// sweep and point index, and leaves every other byte as it was: re-running
/// the sweeps would also rewrite wall times and tick counters. Masking the
/// hash values, the files must then diff empty against their previous
/// version.
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

#include "same_result.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace realm::scenario {
namespace {

/// Runs sweep `name` and expects every point to match its golden; the
/// fresh results go to `fresh_out` when a test checks more.
void expect_matches_golden(const std::string& name,
                           std::vector<ScenarioResult>* fresh_out = nullptr) {
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
    if (fresh_out != nullptr) { *fresh_out = fresh; }
}

TEST(NocGolden, RingDosSmoke) { expect_matches_golden("ring-dos-smoke"); }
TEST(NocGolden, RingCreditDosSmoke) { expect_matches_golden("ring-credit-dos-smoke"); }
TEST(NocGolden, MeshDosSmoke) { expect_matches_golden("mesh-dos-smoke"); }
TEST(NocGolden, MeshCreditDosSmoke) { expect_matches_golden("mesh-credit-dos-smoke"); }
TEST(NocGolden, MeshRoutingDosSmoke) { expect_matches_golden("mesh-routing-dos-smoke"); }

TEST(XbarGolden, XbarDosSmoke) { expect_matches_golden("xbar-dos-smoke"); }
TEST(XbarGolden, Fig6b) { expect_matches_golden("fig6b"); }
TEST(XbarGolden, AblationDos) { expect_matches_golden("ablation-dos"); }
TEST(XbarGolden, AblationThrottle) {
    std::vector<ScenarioResult> r;
    expect_matches_golden("ablation-throttle", &r);
    ASSERT_EQ(r.size(), 2U);
    // Throttling turns hard isolation into early backpressure: with it on
    // (point 1) the budgeted DMA stalls more and sits hard-isolated less.
    EXPECT_GT(r[1].dma_throttle_stalls, r[0].dma_throttle_stalls);
    EXPECT_LT(r[1].dma_isolation_cycles, r[0].dma_isolation_cycles);
}
TEST(XbarGolden, AblationPeriod) { expect_matches_golden("ablation-period"); }
TEST(XbarGolden, RandomMix) { expect_matches_golden("random-mix"); }

} // namespace
} // namespace realm::scenario
