/// Tests for the report-to-report regression differ: label-keyed JSON
/// loading and `diff_against_baseline` semantics (threshold + slack, new
/// points, timeout/boot health regressions) — the machinery behind
/// `scenario_sweep --diff BASELINE.json`.
#include "scenario/cli.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace realm::scenario {
namespace {

ScenarioResult cell(std::string label, std::uint64_t load_max,
                    std::uint64_t store_max) {
    ScenarioResult r;
    r.label = std::move(label);
    r.load_lat_max = load_max;
    r.store_lat_max = store_max;
    r.run_cycles = 1000;
    r.ops = 64;
    return r;
}

/// Writes a baseline dump with the given results and returns its path.
/// The sweep needs matching points so `write_json` emits config hashes
/// (the point-line marker both loaders key on).
std::string write_baseline(const std::vector<ScenarioResult>& results,
                           const char* path) {
    Sweep sweep;
    sweep.name = "diff-fixture";
    for (const ScenarioResult& r : results) {
        sweep.points.push_back({r.label, ScenarioConfig{}});
    }
    EXPECT_TRUE(write_json_file(path, sweep, results));
    return path;
}

class DiffFixture : public ::testing::Test {
protected:
    void TearDown() override { std::remove(path_.c_str()); }
    std::string path_ = test::scratch_path("diff_baseline_test.json");
};

TEST_F(DiffFixture, LoadByLabelRoundTrips) {
    write_baseline({cell("1atk/hog/none", 500, 20), cell("1atk/hog/budget", 30, 40)},
                   path_.c_str());
    const auto map = load_json_results_by_label(path_);
    ASSERT_EQ(map.size(), 2U);
    EXPECT_EQ(map.at("1atk/hog/none").load_lat_max, 500U);
    EXPECT_EQ(map.at("1atk/hog/budget").store_lat_max, 40U);
    EXPECT_TRUE(load_json_results_by_label("does_not_exist.json").empty());
}

TEST_F(DiffFixture, CleanRunPasses) {
    write_baseline({cell("a", 500, 20), cell("b", 30, 40)}, path_.c_str());
    const DiffReport diff = diff_against_baseline(
        path_, {cell("a", 500, 20), cell("b", 30, 40)}, 0.10, 50);
    EXPECT_TRUE(diff.ok());
    EXPECT_EQ(diff.compared, 2U);
    EXPECT_EQ(diff.regressions, 0U);
}

TEST_F(DiffFixture, LatencyGrowthPastThresholdAndSlackRegresses) {
    write_baseline({cell("a", 1000, 20)}, path_.c_str());
    // +5% with 10% threshold: fine.
    EXPECT_TRUE(diff_against_baseline(path_, {cell("a", 1050, 20)}, 0.10, 50).ok());
    // +20% and +200 cycles: regression.
    const DiffReport bad =
        diff_against_baseline(path_, {cell("a", 1200, 20)}, 0.10, 50);
    EXPECT_FALSE(bad.ok());
    ASSERT_EQ(bad.entries.size(), 1U);
    EXPECT_TRUE(bad.entries[0].regressed);
    EXPECT_EQ(bad.entries[0].baseline_worst, 1000U);
    EXPECT_EQ(bad.entries[0].current_worst, 1200U);
}

TEST_F(DiffFixture, AbsoluteSlackShieldsTinyCells) {
    // 4 -> 12 cycles is +200% but only 8 cycles: the slack keeps
    // single-digit-latency cells from tripping on jitter.
    write_baseline({cell("tiny", 4, 2)}, path_.c_str());
    EXPECT_TRUE(diff_against_baseline(path_, {cell("tiny", 12, 2)}, 0.10, 50).ok());
    EXPECT_FALSE(diff_against_baseline(path_, {cell("tiny", 80, 2)}, 0.10, 50).ok());
}

TEST_F(DiffFixture, WorstCaseIncludesStores) {
    // The wstall damage lands on the store path; the differ must gate on
    // max(load, store) like the matrix cells do.
    write_baseline({cell("w", 90, 700)}, path_.c_str());
    EXPECT_FALSE(diff_against_baseline(path_, {cell("w", 90, 1400)}, 0.10, 50).ok());
}

TEST_F(DiffFixture, NewPointsAreInformationalNotRegressions) {
    write_baseline({cell("a", 500, 20)}, path_.c_str());
    const DiffReport diff = diff_against_baseline(
        path_, {cell("a", 500, 20), cell("brand-new", 9999, 0)}, 0.10, 50);
    EXPECT_TRUE(diff.ok());
    EXPECT_EQ(diff.compared, 1U);
    ASSERT_EQ(diff.entries.size(), 2U);
    EXPECT_TRUE(diff.entries[1].missing_in_baseline);
    EXPECT_FALSE(diff.entries[1].regressed);
}

TEST_F(DiffFixture, HealthRegressionsTripRegardlessOfLatency) {
    write_baseline({cell("a", 500, 20)}, path_.c_str());
    ScenarioResult timed_out = cell("a", 10, 10); // "faster", but dead
    timed_out.timed_out = true;
    EXPECT_FALSE(diff_against_baseline(path_, {timed_out}, 0.10, 50).ok());
    ScenarioResult boot_fail = cell("a", 10, 10);
    boot_fail.boot_ok = false;
    EXPECT_FALSE(diff_against_baseline(path_, {boot_fail}, 0.10, 50).ok());
}

TEST_F(DiffFixture, EmptyBaselineComparesNothing) {
    const DiffReport diff = diff_against_baseline(
        "does_not_exist.json", {cell("a", 500, 20)}, 0.10, 50);
    EXPECT_EQ(diff.compared, 0U);
    EXPECT_TRUE(diff.ok()) << "no regressions, but callers must check compared";
}

TEST_F(DiffFixture, SelfDiffOfARealSweepDumpIsClean) {
    // End-to-end: run a real (tiny) sweep, dump it, diff the same results
    // against the dump — the CI self-gate pattern.
    Sweep sweep = make_sweep("ring-credit-dos-smoke");
    sweep.points.resize(2);
    for (SweepPoint& p : sweep.points) { p.config.victim.stream.repeat = 1; }
    const auto results = ScenarioRunner{RunnerOptions{.threads = 2}}.run(sweep);
    ASSERT_TRUE(write_json_file(path_, sweep, results));
    const DiffReport diff = diff_against_baseline(path_, results, 0.0, 0);
    EXPECT_EQ(diff.compared, 2U);
    EXPECT_TRUE(diff.ok());
}

TEST_F(DiffFixture, QuarteredBaselineTripsTheGate) {
    // `--diff` at its default threshold (10 %) and slack (50 cycles): clean
    // against the ring smoke's own dump, exit code 4 against the same dump
    // with every worst-case latency quartered.
    const Sweep sweep = make_sweep("ring-dos-smoke");
    const auto results = ScenarioRunner{RunnerOptions{.threads = 2}}.run(sweep);
    BenchOptions opts;
    opts.diff_path = path_;
    ASSERT_TRUE(write_json_file(path_, sweep, results));
    EXPECT_EQ(check_diff(opts, sweep, results), 0);

    std::vector<ScenarioResult> doctored = results;
    for (ScenarioResult& r : doctored) {
        r.load_lat_max /= 4;
        r.store_lat_max /= 4;
    }
    ASSERT_TRUE(write_json_file(path_, sweep, doctored));
    EXPECT_EQ(check_diff(opts, sweep, results), 4);
}

} // namespace
} // namespace realm::scenario
