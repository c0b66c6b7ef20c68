/// \file
/// \brief Generic sweep runner: executes any registered sweep by name.
///
/// `scenario_sweep --list` prints every registered sweep (the figure/table
/// reproductions plus the ring and mesh NoC families); `scenario_sweep
/// NAME...` runs them with the shared bench flags — `--threads N`
/// parallelizes points, `--json PATH` dumps machine-readable results (one
/// sweep per invocation), `--report PATH.md` renders the reviewable
/// markdown report (DoS matrices become attackers x attack-mode tables per
/// defense), `--json PATH --resume` skips points whose config hash already
/// exists in the dump, enabling cheap incremental re-runs of the big DoS
/// matrices, and `--diff BASELINE.json` compares each cell's worst-case
/// victim latency against a previous run's dump, exiting non-zero past
/// `--diff-threshold`/`--diff-slack` — the CI latency-regression gate.
#include "scenario/cli.hpp"

#include <cstdio>

int main(int argc, char** argv) {
    using namespace realm::scenario;
    BenchOptions opts = parse_bench_args(argc, argv, /*accept_positional=*/true);
    if (opts.positional.empty()) {
        std::fprintf(stderr, "usage: %s [options] SWEEP...  (try --list)\n", argv[0]);
        return 2;
    }
    if (!opts.json_path.empty() && opts.positional.size() > 1) {
        std::fprintf(stderr, "--json supports exactly one sweep per invocation\n");
        return 2;
    }
    if (!opts.report_path.empty() && opts.positional.size() > 1) {
        std::fprintf(stderr, "--report supports exactly one sweep per invocation\n");
        return 2;
    }
    if (!opts.diff_path.empty() && opts.positional.size() > 1) {
        std::fprintf(stderr, "--diff supports exactly one sweep per invocation\n");
        return 2;
    }
    for (const std::string& name : opts.positional) {
        if (!has_sweep(name)) {
            std::fprintf(stderr, "unknown sweep '%s' (try --list)\n", name.c_str());
            return 2;
        }
    }

    int exit_code = 0;
    for (const std::string& name : opts.positional) {
        Sweep sweep = make_sweep(name);
        std::printf("== %s ==\n", sweep.title.c_str());
        const auto results = run_with_options(opts, sweep);
        if (const int diff_rc = check_diff(opts, sweep, results); diff_rc != 0) {
            exit_code = diff_rc;
        }

        std::printf("%-22s %12s %8s %9s %9s %9s %16s %9s\n", "label", "cycles", "ops",
                    "lat_mean", "lat_max", "st_max", "atk_total[B/cyc]", "hops");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ScenarioResult& r = results[i];
            std::printf("%-22s %12llu %8llu %9.2f %9llu %9llu %16.2f %9llu\n",
                        r.label.c_str(), static_cast<unsigned long long>(r.run_cycles),
                        static_cast<unsigned long long>(r.ops), r.load_lat_mean,
                        static_cast<unsigned long long>(r.load_lat_max),
                        static_cast<unsigned long long>(r.store_lat_max), r.dma_read_bw,
                        static_cast<unsigned long long>(r.fabric_hops));
        }
        for (const std::string& note : sweep.notes) {
            std::printf("note: %s\n", note.c_str());
        }
        std::printf("\n");
    }
    return exit_code;
}
