/// Tests for the markdown report renderer: cell-label parsing, the
/// DoS-matrix golden rendering (format pinned byte for byte), the flat
/// fallback table, and the file writer.
#include "scenario/report.hpp"
#include "scenario/search.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace realm::scenario {
namespace {

// --- Cell-label parsing ------------------------------------------------------

TEST(DosCellLabel, ParsesTheMatrixConvention) {
    DosCellLabel cell;
    ASSERT_TRUE(parse_dos_cell_label("3atk/hog/budget", cell));
    EXPECT_EQ(cell.attackers, 3U);
    EXPECT_EQ(cell.attack, "hog");
    EXPECT_EQ(cell.defense, "budget");

    ASSERT_TRUE(parse_dos_cell_label("12atk/wstall/none", cell));
    EXPECT_EQ(cell.attackers, 12U);
}

TEST(DosCellLabel, ParsesTheRoutingPolicyAxis) {
    // A fourth segment is valid only when it names a registered routing
    // policy; the base three-segment convention leaves `policy` empty.
    DosCellLabel cell;
    ASSERT_TRUE(parse_dos_cell_label("3atk/hog/budget/o1turn", cell));
    EXPECT_EQ(cell.attackers, 3U);
    EXPECT_EQ(cell.attack, "hog");
    EXPECT_EQ(cell.defense, "budget");
    EXPECT_EQ(cell.policy, "o1turn");
    ASSERT_TRUE(parse_dos_cell_label("1atk/wstall/none/west-first", cell));
    EXPECT_EQ(cell.policy, "west-first");
    ASSERT_TRUE(parse_dos_cell_label("2atk/hog/none", cell));
    EXPECT_TRUE(cell.policy.empty());
}

TEST(DosCellLabel, RejectsEverythingElse) {
    DosCellLabel cell;
    EXPECT_FALSE(parse_dos_cell_label("baseline", cell));
    EXPECT_FALSE(parse_dos_cell_label("atk/hog/none", cell));
    EXPECT_FALSE(parse_dos_cell_label("3atk/hog", cell));
    EXPECT_FALSE(parse_dos_cell_label("3atk/hog/none/extra", cell))
        << "a fourth segment must name a routing policy";
    EXPECT_FALSE(parse_dos_cell_label("3atk/hog/none/xy/more", cell));
    EXPECT_FALSE(parse_dos_cell_label("3atk//none", cell));
    EXPECT_FALSE(parse_dos_cell_label("N=6 solo", cell));
}

// --- Matrix rendering (golden) -----------------------------------------------

ScenarioResult result_for(std::string label, std::uint64_t load_max,
                          std::uint64_t store_max) {
    ScenarioResult r;
    r.label = std::move(label);
    r.load_lat_max = load_max;
    r.store_lat_max = store_max;
    r.run_cycles = 1000;
    r.ops = 10;
    return r;
}

/// 2 attackers x 2 attacks x 2 defenses, fixed synthetic latencies.
std::pair<Sweep, std::vector<ScenarioResult>> matrix_fixture() {
    Sweep sweep;
    sweep.name = "golden-dos";
    sweep.title = "Golden DoS matrix";
    sweep.notes = {"synthetic fixture for the rendering golden test."};
    std::vector<ScenarioResult> results;
    const struct {
        const char* label;
        std::uint64_t load;
        std::uint64_t store;
    } cells[] = {
        {"1atk/hog/none", 500, 20},   {"1atk/wstall/none", 90, 700},
        {"2atk/hog/none", 800, 20},   {"2atk/wstall/none", 90, 1200},
        {"1atk/hog/budget", 30, 20},  {"1atk/wstall/budget", 25, 40},
        {"2atk/hog/budget", 35, 20},  {"2atk/wstall/budget", 25, 45},
    };
    for (const auto& c : cells) {
        sweep.points.push_back({c.label, ScenarioConfig{}});
        results.push_back(result_for(c.label, c.load, c.store));
    }
    return {sweep, results};
}

TEST(ReportRendering, DosMatrixGolden) {
    const auto [sweep, results] = matrix_fixture();
    std::ostringstream os;
    write_report(os, sweep, results);
    const std::string expected =
        "# Golden DoS matrix\n"
        "\n"
        "Sweep `golden-dos`, 8 points.\n"
        "> synthetic fixture for the rendering golden test.\n"
        "\n"
        "Cells report the worst-case victim latency in cycles (max of load / "
        "store latency); the worst cell per defense is **bold**.\n"
        "\n"
        "## Defense: `none`\n"
        "\n"
        "| attackers | hog | wstall |\n"
        "|---|---|---|\n"
        "| 1 | 500 | 700 |\n"
        "| 2 | 800 | **1200** |\n"
        "\n"
        "Worst cell: `2atk/wstall/none` at 1200 cycles.\n"
        "\n"
        "## Defense: `budget`\n"
        "\n"
        "| attackers | hog | wstall |\n"
        "|---|---|---|\n"
        "| 1 | 30 | 40 |\n"
        "| 2 | 35 | **45** |\n"
        "\n"
        "Worst cell: `2atk/wstall/budget` at 45 cycles.\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(ReportRendering, RoutingPolicyRendersAsARowDimension) {
    // Cells labelled with the routing axis render one row per
    // (attackers, policy) combination under each defense; sweeps without
    // the axis keep the legacy format (pinned by DosMatrixGolden above).
    Sweep sweep;
    sweep.name = "routing-dos";
    sweep.title = "Routing DoS matrix";
    std::vector<ScenarioResult> results;
    const struct {
        const char* label;
        std::uint64_t load;
    } cells[] = {
        {"1atk/hog/none/xy", 500},
        {"1atk/hog/none/yx", 520},
        {"2atk/hog/none/xy", 800},
        {"2atk/hog/none/yx", 900},
    };
    for (const auto& c : cells) {
        sweep.points.push_back({c.label, ScenarioConfig{}});
        results.push_back(result_for(c.label, c.load, 10));
    }
    std::ostringstream os;
    write_report(os, sweep, results);
    const std::string report = os.str();
    EXPECT_NE(report.find("| attackers · routing | hog |"), std::string::npos);
    EXPECT_NE(report.find("| 1 · xy | 500 |"), std::string::npos);
    EXPECT_NE(report.find("| 1 · yx | 520 |"), std::string::npos);
    EXPECT_NE(report.find("| 2 · xy | 800 |"), std::string::npos);
    EXPECT_NE(report.find("| 2 · yx | **900** |"), std::string::npos);
    EXPECT_NE(report.find("Worst cell: `2atk/hog/none/yx` at 900 cycles."),
              std::string::npos);
}

TEST(ReportRendering, FlagsBootFailuresAndTimeouts) {
    auto [sweep, results] = matrix_fixture();
    results[0].boot_ok = false;
    results[3].timed_out = true;
    std::ostringstream os;
    write_report(os, sweep, results);
    const std::string report = os.str();
    EXPECT_NE(report.find("boot failed"), std::string::npos);
    EXPECT_NE(report.find("1200 (timed out)"), std::string::npos);
    EXPECT_NE(report.find("**Flagged points:**"), std::string::npos);
    EXPECT_NE(report.find("- `1atk/hog/none`: boot script did not complete"),
              std::string::npos);
    EXPECT_NE(report.find("- `2atk/wstall/none`: timed out"), std::string::npos);
}

// --- Flat fallback -----------------------------------------------------------

TEST(ReportRendering, NonMatrixSweepsFallBackToFlatTableWithBaseline) {
    Sweep sweep;
    sweep.name = "flat";
    sweep.title = "Flat sweep";
    sweep.baseline_index = 0;
    sweep.points.push_back({"baseline", ScenarioConfig{}});
    sweep.points.push_back({"contended", ScenarioConfig{}});
    ScenarioResult base = result_for("baseline", 10, 5);
    base.run_cycles = 1000;
    base.load_lat_mean = 3.5;
    ScenarioResult slow = result_for("contended", 90, 40);
    slow.run_cycles = 4000;
    slow.fabric_hops = 77;

    std::ostringstream os;
    write_report(os, sweep, {base, slow});
    const std::string report = os.str();
    EXPECT_NE(report.find("| point | run cycles |"), std::string::npos);
    EXPECT_NE(report.find("| baseline | 1000 | 10 | 3.50 | 10 | 5 |"),
              std::string::npos);
    EXPECT_NE(report.find(" 100.0 % |"), std::string::npos) << "baseline vs itself";
    EXPECT_NE(report.find(" 25.0 % |"), std::string::npos) << "4x slower point";
    EXPECT_NE(report.find("| 77 |"), std::string::npos);
    EXPECT_EQ(report.find("## Defense"), std::string::npos);
}

// --- Monitoring-plane sections -----------------------------------------------

/// One attack cell (hostile dma8 flagged via occupancy) and one clean cell,
/// ten managers each: past the report's 8-row cap, so the loudest-first
/// ordering and the omission footer both show.
std::pair<Sweep, std::vector<ScenarioResult>> monitored_fixture() {
    auto [sweep, results] = matrix_fixture();
    sweep.points.resize(2);
    results.resize(2);
    sweep.points[1].label = "0atk/hog/none";
    results[1].label = "0atk/hog/none";
    for (SweepPoint& p : sweep.points) { p.config.monitors.enabled = true; }
    for (ScenarioResult& r : results) {
        r.mon_enabled = true;
        // The core, then dma0..dma8: dma8 is the loudest and dma0 and dma1
        // the quietest.
        r.mgr_p50 = {40, 9, 9, 10, 10, 10, 10, 10, 10, 11};
        r.mgr_p99 = {160, 30, 31, 50, 51, 52, 53, 54, 55, 90};
        r.mgr_p999 = {200, 33, 34, 60, 61, 62, 63, 64, 65, 120};
        r.mgr_occ_milli = {850, 400, 400, 500, 500, 500, 500, 500, 500, 1990};
        r.mgr_flagged.assign(10, 0);
        r.mgr_signals.assign(10, 0);
        r.mgr_hostile.assign(10, 0);
        r.mgr_detect.assign(10, 0);
    }
    results[0].mgr_hostile[9] = 1;
    results[0].mgr_flagged[9] = 1;
    results[0].mgr_signals[9] = mon::kSignalOccupancy;
    results[0].mgr_detect[9] = 1024;
    results[0].mon_true_positives = 1;
    results[0].mon_first_detect = 1024;
    return {sweep, results};
}

TEST(ReportRendering, FlatTableGrowsASpeedColumnWhenWallTimeIsKnown) {
    // Synthetic results carry wall_seconds == 0, so the matrix/flat goldens
    // above never see this column; a measured run renders simulated cycles
    // per wall second next to the functional metrics.
    Sweep sweep;
    sweep.name = "flat-speed";
    sweep.title = "Flat sweep with host speed";
    sweep.points.push_back({"fast", ScenarioConfig{}});
    sweep.points.push_back({"replayed", ScenarioConfig{}});
    ScenarioResult fast = result_for("fast", 10, 5);
    fast.simulated_cycles = 50000;
    fast.wall_seconds = 0.5;
    ScenarioResult replayed = result_for("replayed", 20, 8);

    std::ostringstream os;
    write_report(os, sweep, {fast, replayed});
    const std::string report = os.str();
    EXPECT_NE(report.find("| hops | sim c/s |"), std::string::npos);
    EXPECT_NE(report.find(" 100000 |"), std::string::npos)
        << "50000 cycles / 0.5 s = 100000 c/s";
    EXPECT_NE(report.find(" – |"), std::string::npos)
        << "a point without wall time (resume reuse) renders a dash";
}

TEST(ReportRendering, ProfiledRunsRenderACycleAttributionSection) {
    Sweep sweep;
    sweep.name = "profiled";
    sweep.title = "Profiled sweep";
    sweep.points.push_back({"only", ScenarioConfig{}});
    ScenarioResult r = result_for("only", 10, 5);
    r.profile.push_back({"realm::noc::Router", 0, 16, 12000, 3000000});
    r.profile.push_back({"realm::axi::Dma", 1, 4, 4000, 1000000});

    std::ostringstream os;
    write_report(os, sweep, {r});
    const std::string report = os.str();
    EXPECT_NE(report.find("## Cycle attribution"), std::string::npos);
    EXPECT_NE(report.find("| `only` | realm::noc::Router | 0 | 16 | 12000 | "
                          "3.00 | 75.0 % |"),
              std::string::npos);
    EXPECT_NE(report.find("| `only` | realm::axi::Dma | 1 | 4 | 4000 | "
                          "1.00 | 25.0 % |"),
              std::string::npos);
}

TEST(ReportRendering, ShardedRunsRenderAPartitionBalanceSection) {
    Sweep sweep;
    sweep.name = "sharded";
    sweep.title = "Sharded sweep";
    sweep.points.push_back({"only", ScenarioConfig{}});
    ScenarioResult r = result_for("only", 10, 5);
    r.shard_ticks_executed = {6000, 2000};
    r.profile.push_back({"realm::noc::MeshRouter", 0, 16, 12000, 3000000});
    r.profile.push_back({"realm::mem::AxiMemSlave", 1, 4, 4000, 1000000});

    std::ostringstream os;
    write_report(os, sweep, {r});
    const std::string report = os.str();
    EXPECT_NE(report.find("## Partition balance"), std::string::npos);
    EXPECT_NE(report.find("| point | shard | ticks | tick share | wall share |"),
              std::string::npos);
    EXPECT_NE(report.find("| `only` | 0 | 6000 | 75.0 % | 75.0 % |"),
              std::string::npos);
    EXPECT_NE(report.find("| `only` | 1 | 2000 | 25.0 % | 25.0 % |"),
              std::string::npos);
}

TEST(ReportRendering, PartitionBalanceWithoutProfileRendersDashes) {
    Sweep sweep;
    sweep.name = "sharded-unprofiled";
    sweep.title = "Sharded sweep, no profiler";
    sweep.points.push_back({"only", ScenarioConfig{}});
    ScenarioResult r = result_for("only", 10, 5);
    r.shard_ticks_executed = {3000, 1000};

    std::ostringstream os;
    write_report(os, sweep, {r});
    const std::string report = os.str();
    EXPECT_NE(report.find("| `only` | 0 | 3000 | 75.0 % | – |"),
              std::string::npos);
    EXPECT_NE(report.find("| `only` | 1 | 1000 | 25.0 % | – |"),
              std::string::npos);
}

TEST(ReportRendering, UnshardedResultsRenderNoPartitionSection) {
    // Single-shard results carry one-element tick arrays; the section must
    // stay absent so legacy report bytes are untouched.
    auto [sweep, results] = matrix_fixture();
    for (ScenarioResult& r : results) { r.shard_ticks_executed = {1234}; }
    std::ostringstream os;
    write_report(os, sweep, results);
    EXPECT_EQ(os.str().find("Partition balance"), std::string::npos);
}

TEST(ReportRendering, UnprofiledResultsRenderNoAttributionSection) {
    const auto [sweep, results] = matrix_fixture();
    std::ostringstream os;
    write_report(os, sweep, results);
    EXPECT_EQ(os.str().find("Cycle attribution"), std::string::npos);
}

TEST(ReportRendering, MonitoredSweepsRenderCoverageAndDistributions) {
    const auto [sweep, results] = monitored_fixture();
    std::ostringstream os;
    write_report(os, sweep, results);
    const std::string report = os.str();

    EXPECT_NE(report.find("## Detection coverage"), std::string::npos);
    EXPECT_NE(report.find("| `1atk/hog/none` | 1 | 1 | 0 | 0 | 1024 | occ |"),
              std::string::npos)
        << "attack cell row: 1 hostile, detected, ttd, firing signal";
    EXPECT_NE(report.find("| `0atk/hog/none` | 0 | 0 | 0 | 0 | – | - |"),
              std::string::npos)
        << "clean cell row stays all-zero";
    EXPECT_NE(report.find("Detected 1/1 attack cells (100.0 %)"),
              std::string::npos);
    EXPECT_NE(report.find("0 on 1 no-attack points"), std::string::npos);

    EXPECT_NE(report.find("## Per-manager latency distributions"),
              std::string::npos);
    EXPECT_NE(report.find("| point | manager | p50 | p99 | p99.9 | occ | "
                          "flagged | signals | ttd [cyc] |"),
              std::string::npos);
    EXPECT_NE(
        report.find("| `1atk/hog/none` | core | 40 | 160 | 200 | 0.85 | no | - | – |"),
        std::string::npos)
        << "the victim row always renders first";
    const std::size_t loudest =
        report.find("| `1atk/hog/none` | dma8 | 11 | 90 | 120 | 1.99 | yes | occ | 1024 |");
    EXPECT_NE(loudest, std::string::npos) << "the loudest (highest-P99) DMA renders";
    const std::size_t last_shown = report.find("| `1atk/hog/none` | dma2 | 10 | 50 |");
    EXPECT_NE(last_shown, std::string::npos) << "the quietest of the eight rows";
    EXPECT_LT(loudest, last_shown) << "managers render loudest first";
    EXPECT_EQ(report.find("| dma0 |"), std::string::npos)
        << "the quietest DMAs fall to the 8-row cap";
    EXPECT_EQ(report.find("| dma1 |"), std::string::npos);
    EXPECT_NE(report.find("4 manager rows omitted"), std::string::npos)
        << "two rows per point";
}

TEST(ReportRendering, UnmonitoredResultsRenderNoMonitorSections) {
    const auto [sweep, results] = matrix_fixture();
    std::ostringstream os;
    write_report(os, sweep, results);
    EXPECT_EQ(os.str().find("Detection coverage"), std::string::npos);
    EXPECT_EQ(os.str().find("Per-manager"), std::string::npos);
}

// --- Adversarial-search section (golden) -------------------------------------

TEST(SearchReport, WorstFoundVsWorstEnumeratedGolden) {
    SearchSummary summary;
    summary.sweep = "mesh-dos-smoke";
    summary.base_label = "2atk/hog/none";
    summary.worst_enumerated_label = "2atk/hog/none";
    summary.worst_enumerated_p99 = 1924;
    summary.budget = 2;
    summary.seed = 1;

    SearchOutcome outcome;
    SearchEval mild; // all-zeros genome: the gentlest decodable pattern
    mild.result = result_for(traffic::to_label(mild.genome), 120, 50);
    mild.result.load_lat_p99 = 100;
    mild.objective = 100;
    SearchEval harsh; // all-0xFF genome: every knob at its ceiling
    harsh.genome.genes.fill(0xFF);
    harsh.result = result_for(traffic::to_label(harsh.genome), 2100, 30);
    harsh.result.load_lat_p99 = 2000;
    harsh.objective = 2000;
    harsh.reused = true;
    outcome.history = {mild, harsh};
    outcome.best = 1;
    outcome.fresh = 1;
    outcome.reused = 1;

    std::ostringstream os;
    write_search_report(os, summary, outcome);
    EXPECT_EQ(os.str(),
              "## Adversarial search: 2atk/hog/none\n"
              "\n"
              "Sweep `mesh-dos-smoke`, budget 2 evaluations (1 replayed from "
              "checkpoint), search seed 1. Objective: victim P99 load latency.\n"
              "\n"
              "| attacker | victim P99 (cycles) | worst case (cycles) | point |\n"
              "|---|---:|---:|---|\n"
              "| worst enumerated | 1924 | - | `2atk/hog/none` |\n"
              "| **worst found** | **2000** | 2100 | "
              "`inj:ffffffffffffffffffffffff` |\n"
              "\n"
              "Winning genome `inj:ffffffffffffffffffffffff` decodes to: "
              "256-beat reads / 256-beat writes, 16/16 writes, strided walk "
              "(stride 8), duty 64/448, W stall 60, head delay 96, outstanding "
              "4, ramp 31, window span>>3. Replay: rerun the cell with this "
              "label as the genome.\n"
              "\n"
              "| rank | genome | victim P99 | worst case | source |\n"
              "|---:|---|---:|---:|---|\n"
              "| 1 | `inj:ffffffffffffffffffffffff` | 2000 | 2100 | checkpoint |\n"
              "| 2 | `inj:000000000000000000000000` | 100 | 120 | simulated |\n"
              "\n");
}

TEST(SearchReport, GridReportsAreUntouchedWhenSearchIsOff) {
    // The search section is a *separate* writer: rendering a sweep through
    // `write_report` must never emit it, so existing report bytes are
    // identical whether or not the search feature exists.
    const auto [sweep, results] = matrix_fixture();
    std::ostringstream os;
    write_report(os, sweep, results);
    EXPECT_EQ(os.str().find("Adversarial search"), std::string::npos);
    EXPECT_EQ(os.str().find("worst found"), std::string::npos);
}

// --- File writer -------------------------------------------------------------

TEST(ReportRendering, WriteReportFileRoundTrips) {
    const auto [sweep, results] = matrix_fixture();
    const std::string path = test::scratch_path("report_roundtrip.md");
    ASSERT_TRUE(write_report_file(path, sweep, results));
    std::ifstream in{path};
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::ostringstream os;
    write_report(os, sweep, results);
    EXPECT_EQ(buf.str(), os.str());
    std::remove(path.c_str());
}

} // namespace
} // namespace realm::scenario
