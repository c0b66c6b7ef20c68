/// \file
/// \brief Adversarial interference search bench: runs an enumerated DoS
///        sweep, then searches `InjectorGenome` space against one of its
///        cells, maximizing victim P99 load latency.
///
/// The enumerated grid gives "worst enumerated"; the search prints "worst
/// found" beside it plus the winning genome's label, so any discovered
/// attack is replayable as a fixed scenario. The `--json` dump doubles as
/// the search checkpoint (`--resume` replays cached evaluations via
/// `config_hash`), `--report` appends the search section to the grid
/// report, and `--diff` gates the stable `worst-found` point against a
/// previous run — CI's proof that each defense still bounds the victim
/// under the *searched* worst case, not just the enumerated one.
///
/// Search flags (on top of the shared bench flags):
///   --search-budget N   total evaluations, cached hits included (default 32)
///   --search-seed N     search-RNG seed (default 1)
///   --population N      λ: candidates per generation (default 8)
///   --parents N         μ: elite pool bred from (default 4)
///   --cell LABEL        grid cell to attack (default: worst enumerated)
///   --grid-json PATH    enumerated grid dump, resumed when present
#include "scenario/cli.hpp"
#include "scenario/search.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace {

/// Splits the search-specific flags out of argv so the remainder can go
/// through the shared `parse_bench_args` (which rejects unknown flags).
struct SearchArgs {
    realm::scenario::SearchOptions search{};
    std::string cell;
    std::string grid_json;
    std::vector<char*> rest;
};

SearchArgs split_args(int argc, char** argv) {
    SearchArgs out;
    out.rest.push_back(argv[0]);
    const auto need_value = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s requires a value\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };
    const auto parse_count = [](const char* flag, const char* value) {
        return realm::scenario::parse_unsigned_flag(flag, value, "a positive count", 1);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--search-budget") {
            out.search.budget = parse_count("--search-budget",
                                            need_value(i, "--search-budget"));
        } else if (arg == "--search-seed") {
            out.search.seed = parse_count("--search-seed",
                                          need_value(i, "--search-seed"));
        } else if (arg == "--population") {
            out.search.population =
                parse_count("--population", need_value(i, "--population"));
        } else if (arg == "--parents") {
            out.search.parents = parse_count("--parents", need_value(i, "--parents"));
        } else if (arg == "--cell") {
            out.cell = need_value(i, "--cell");
        } else if (arg == "--grid-json") {
            out.grid_json = need_value(i, "--grid-json");
        } else {
            out.rest.push_back(argv[i]);
        }
    }
    return out;
}

} // namespace

int main(int argc, char** argv) {
    using namespace realm::scenario;
    SearchArgs sargs = split_args(argc, argv);
    const BenchOptions opts =
        parse_bench_args(static_cast<int>(sargs.rest.size()), sargs.rest.data(),
                         /*accept_positional=*/true);

    const std::string sweep_name =
        opts.positional.empty() ? "mesh-dos-smoke" : opts.positional.front();
    if (!has_sweep(sweep_name)) {
        std::fprintf(stderr, "unknown sweep '%s' (try --list)\n", sweep_name.c_str());
        return 2;
    }

    std::printf("== Adversarial interference search over '%s' ==\n",
                sweep_name.c_str());

    // Phase 1: the enumerated grid (resumable via its own dump).
    Sweep sweep = make_sweep(sweep_name);
    apply_overrides(opts, sweep);
    const ScenarioRunner runner{opts.runner};
    std::vector<ScenarioResult> grid;
    if (!sargs.grid_json.empty()) {
        std::size_t reused = 0;
        grid = load_or_exit(
            [&] { return runner.run_resumed(sweep, sargs.grid_json, &reused); });
        std::fprintf(stderr, "%s: grid: reused %zu/%zu points from %s\n",
                     sweep_name.c_str(), reused, sweep.points.size(),
                     sargs.grid_json.c_str());
        if (!write_json_file(sargs.grid_json, sweep, grid)) {
            std::fprintf(stderr, "failed to write grid JSON to %s\n",
                         sargs.grid_json.c_str());
            return 3;
        }
    } else {
        grid = runner.run(sweep);
    }

    // Worst enumerated attack cell by the search objective; also the
    // default search target.
    const std::size_t worst = worst_attack_cell(sweep, grid);
    if (worst == sweep.points.size()) {
        std::fprintf(stderr, "sweep '%s' has no attack cells to search\n",
                     sweep_name.c_str());
        return 2;
    }
    std::size_t target = worst;
    if (!sargs.cell.empty()) {
        target = sweep.points.size();
        for (std::size_t i = 0; i < sweep.points.size(); ++i) {
            if (!sweep.points[i].config.interference.empty() &&
                sweep.points[i].label == sargs.cell) {
                target = i;
            }
        }
        if (target == sweep.points.size()) {
            std::fprintf(stderr, "--cell '%s' does not name an attack cell of '%s'\n",
                         sargs.cell.c_str(), sweep_name.c_str());
            return 2;
        }
    }

    // Phase 2: the search. The --json dump is the checkpoint; without
    // --resume any stale dump is discarded so the search starts fresh.
    SearchOptions search = sargs.search;
    search.threads = opts.runner.threads;
    search.checkpoint_path = opts.json_path;
    if (!opts.resume && !opts.json_path.empty()) {
        std::remove(opts.json_path.c_str());
    }
    std::printf("searching cell '%s' (budget %zu, seed %llu, %zu+%zu)\n",
                sweep.points[target].label.c_str(), search.budget,
                static_cast<unsigned long long>(search.seed), search.parents,
                search.population);
    const SearchOutcome outcome = load_or_exit(
        [&] { return search_worst_case(sweep.points[target].config, search); });
    const SearchEval& win = outcome.winner();

    SearchSummary summary;
    summary.sweep = sweep_name;
    summary.base_label = sweep.points[target].label;
    summary.worst_enumerated_label = sweep.points[worst].label;
    summary.worst_enumerated_p99 = search_objective(grid[worst]);
    summary.budget = search.budget;
    summary.seed = search.seed;

    // Rewrite the checkpoint with the stable `worst-found` point appended —
    // the label the cross-run --diff gate keys on (genome labels churn
    // between runs; the gate must not).
    if (!opts.json_path.empty()) {
        Sweep ck;
        ck.name = "search";
        ck.title = "adversarial search checkpoint: " + summary.base_label;
        std::vector<ScenarioResult> results;
        for (const SearchEval& e : outcome.history) {
            ck.points.push_back({realm::traffic::to_label(e.genome),
                                 genome_scenario(sweep.points[target].config,
                                                 e.genome)});
            results.push_back(e.result);
        }
        ck.points.push_back({"worst-found",
                             genome_scenario(sweep.points[target].config,
                                             win.genome)});
        ScenarioResult relabeled = win.result;
        relabeled.label = "worst-found";
        results.push_back(relabeled);
        if (!write_json_file(opts.json_path, ck, results)) {
            std::fprintf(stderr, "failed to write JSON to %s\n",
                         opts.json_path.c_str());
            return 3;
        }
    }

    if (!opts.report_path.empty()) {
        std::ofstream os{opts.report_path};
        if (!os) {
            std::fprintf(stderr, "failed to write report to %s\n",
                         opts.report_path.c_str());
            return 3;
        }
        write_report(os, sweep, grid);
        write_search_report(os, summary, outcome);
    }

    std::printf("worst_enumerated_p99=%llu cell=%s\n",
                static_cast<unsigned long long>(summary.worst_enumerated_p99),
                summary.worst_enumerated_label.c_str());
    std::printf("worst_found_p99=%llu genome=%s (worst case %llu cycles, "
                "%zu simulated + %zu replayed)\n",
                static_cast<unsigned long long>(win.objective),
                realm::traffic::to_label(win.genome).c_str(),
                static_cast<unsigned long long>(
                    worst_case_victim_latency(win.result)),
                outcome.fresh, outcome.reused);

    // Cross-run regression gate on the searched worst case.
    ScenarioResult gated = win.result;
    gated.label = "worst-found";
    Sweep gate_sweep;
    gate_sweep.name = "search:" + summary.base_label;
    return check_diff(opts, gate_sweep, {gated});
}
