/// Tests for the adversarial interference search: fixed seed => identical
/// generation history and winner, checkpoint resume replays cached
/// evaluations without re-running them (including from a truncated file,
/// mirroring the `test_diff.cpp` fixture), and — the acceptance bar —
/// searching from the enumerated grid's worst cell finds a genome at least
/// as damaging as that cell, bit-identically replayable from its reported
/// genome + seed across shard counts, on the mesh smoke matrix and on
/// `scenario_search`'s default 4x4 grid.
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/search.hpp"

#include "same_result.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace realm::scenario {
namespace {

/// The first defense-off attack cell of the mesh smoke matrix, shrunk for
/// unit-test wall-clock (the full-size acceptance run lives in CI).
ScenarioConfig tiny_cell() {
    Sweep sweep = make_sweep("mesh-dos-smoke");
    for (SweepPoint& p : sweep.points) {
        if (p.config.interference.empty()) { continue; }
        p.config.victim.stream.repeat = 1;
        return p.config;
    }
    ADD_FAILURE() << "mesh-dos-smoke has no attack cells";
    return ScenarioConfig{};
}

SearchOptions tiny_options() {
    SearchOptions opts;
    opts.budget = 6;
    opts.population = 3;
    opts.parents = 2;
    opts.seed = 7;
    opts.threads = 2;
    return opts;
}

std::vector<std::string> history_labels(const SearchOutcome& o) {
    std::vector<std::string> labels;
    labels.reserve(o.history.size());
    for (const SearchEval& e : o.history) {
        labels.push_back(traffic::to_label(e.genome));
    }
    return labels;
}

class SearchFixture : public ::testing::Test {
protected:
    void TearDown() override { std::remove(path_.c_str()); }
    std::string path_ = test::scratch_path("search_checkpoint_test.json");
};

TEST_F(SearchFixture, FixedSeedGivesIdenticalHistoryAndWinner) {
    const ScenarioConfig base = tiny_cell();
    const SearchOptions opts = tiny_options();
    const SearchOutcome a = search_worst_case(base, opts);
    const SearchOutcome b = search_worst_case(base, opts);
    ASSERT_EQ(a.history.size(), opts.budget);
    EXPECT_EQ(history_labels(a), history_labels(b));
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.winner().objective, b.winner().objective);
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i].objective, b.history[i].objective) << i;
        EXPECT_TRUE(test::same_result(a.history[i].result, b.history[i].result,
                                      FieldKind::kHost))
            << i;
    }
}

TEST_F(SearchFixture, GenerationZeroStartsFromTheEnumeratedRepertoire) {
    const ScenarioConfig base = tiny_cell();
    SearchOptions opts = tiny_options();
    opts.budget = 4;
    const SearchOutcome out = search_worst_case(base, opts);
    const std::vector<traffic::InjectorGenome> seeds = attack_seed_genomes();
    ASSERT_GE(out.history.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        EXPECT_TRUE(out.history[i].genome == seeds[i])
            << "seed genome " << i << " must open the search";
    }
}

TEST_F(SearchFixture, ResumeReplaysEveryCachedEvaluation) {
    const ScenarioConfig base = tiny_cell();
    SearchOptions opts = tiny_options();
    opts.checkpoint_path = path_;
    const SearchOutcome first = search_worst_case(base, opts);
    EXPECT_EQ(first.fresh, opts.budget);
    EXPECT_EQ(first.reused, 0U);

    const SearchOutcome again = search_worst_case(base, opts);
    EXPECT_EQ(again.fresh, 0U);
    EXPECT_EQ(again.reused, opts.budget);
    EXPECT_EQ(history_labels(first), history_labels(again));
    EXPECT_EQ(first.best, again.best);
    EXPECT_EQ(first.winner().objective, again.winner().objective);
}

TEST_F(SearchFixture, TruncatedCheckpointResumesItsPrefixOnly) {
    const ScenarioConfig base = tiny_cell();
    SearchOptions opts = tiny_options();
    opts.checkpoint_path = path_;
    const SearchOutcome full = search_worst_case(base, opts);

    // Keep the header and the first 2 point lines — the prefix of a search
    // killed mid-run (point lines are the ones carrying "config_hash").
    std::ifstream in{path_};
    ASSERT_TRUE(in.good());
    std::ostringstream kept;
    std::string line;
    std::size_t points_kept = 0;
    while (std::getline(in, line)) {
        if (line.find("\"config_hash\"") != std::string::npos) {
            if (points_kept == 2) { break; }
            ++points_kept;
        }
        kept << line << "\n";
    }
    in.close();
    ASSERT_EQ(points_kept, 2U);
    std::ofstream{path_} << kept.str();

    const SearchOutcome resumed = search_worst_case(base, opts);
    EXPECT_EQ(resumed.reused, 2U) << "exactly the surviving prefix replays";
    EXPECT_EQ(resumed.fresh, opts.budget - 2);
    EXPECT_EQ(history_labels(full), history_labels(resumed))
        << "resume must converge to the straight-through history";
    EXPECT_EQ(full.winner().objective, resumed.winner().objective);
}

TEST_F(SearchFixture, SearchMatchesOrBeatsTheEnumeratedGridAndReplaysExactly) {
    // Acceptance bar, smoke-sized: searched from the enumerated grid's worst
    // cell, as `scenario_search` does, the searched worst case must be at
    // least that cell's, and the winner must replay bit-identically from its
    // genome + seed under shards 1 vs 4.
    Sweep sweep = make_sweep("mesh-dos-smoke");
    for (SweepPoint& p : sweep.points) { p.config.victim.stream.repeat = 1; }
    const ScenarioRunner runner{RunnerOptions{.threads = 2}};
    const std::vector<ScenarioResult> grid = runner.run(sweep);
    const std::size_t worst = worst_attack_cell(sweep, grid);
    ASSERT_LT(worst, sweep.points.size());

    SearchOptions opts = tiny_options();
    const SearchOutcome out = search_worst_case(sweep.points[worst].config, opts);
    EXPECT_GE(out.winner().objective, search_objective(grid[worst]))
        << "searched worst case fell below the enumerated grid";

    ScenarioConfig replay =
        genome_scenario(sweep.points[worst].config, out.winner().genome);
    ScenarioConfig replay4 = replay;
    replay4.shards = 4;
    // Two workers run the concurrent barrier without one thread per shard:
    // this cell's winner runs 0.5 M cycles, and four spinning workers on a
    // shared 4-vCPU host took 3.3 s of the test's 4.2 s.
    replay4.shard_workers = 2;
    const ScenarioResult r1 = run_scenario(replay);
    const ScenarioResult r4 = run_scenario(replay4);
    EXPECT_EQ(r1.load_lat_p99, out.winner().objective);
    EXPECT_TRUE(test::same_result(r1, r4, FieldKind::kKernel));
}

TEST(SearchGate, MeshSearchSmokeMatchesOrBeatsTheEnumeratedGrid) {
    // `scenario_search mesh-search-smoke --search-budget 24 --search-seed 1`:
    // on the full-size 4x4 grid the searched worst P99 must be at least the
    // worst enumerated cell's.
    const Sweep sweep = make_sweep("mesh-search-smoke");
    const std::vector<ScenarioResult> grid =
        ScenarioRunner{RunnerOptions{.threads = 4}}.run(sweep);
    const std::size_t worst = worst_attack_cell(sweep, grid);
    ASSERT_LT(worst, sweep.points.size());
    SearchOptions opts;
    opts.budget = 24;
    opts.seed = 1;
    opts.threads = 4;
    const SearchOutcome out = search_worst_case(sweep.points[worst].config, opts);
    std::printf("worst_enumerated_p99=%llu worst_found_p99=%llu\n",
                static_cast<unsigned long long>(search_objective(grid[worst])),
                static_cast<unsigned long long>(out.winner().objective));
    EXPECT_GE(out.winner().objective, search_objective(grid[worst]))
        << "search fell below the enumerated grid at " << sweep.points[worst].label;
}

} // namespace
} // namespace realm::scenario
