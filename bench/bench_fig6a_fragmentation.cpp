/// \file
/// \brief Reproduces **Figure 6a**: performance of Susan on the core under
///        DSA-DMA contention at varying transfer fragmentation (in beats).
///
/// Paper reference points (FPGA, CVA6 + Cheshire):
///   - single-source: core accesses served in at most 8 cycles;
///   - without reservation (= fragmentation 256): < 0.7 % of single-source
///     performance, every access delayed by >= 264 cycles;
///   - fragmentation 1: 68.2 % of single-source performance, access latency
///     below 10 cycles (one cycle from the REALM unit, one from residual
///     interference).
///
/// Runs through the scenario engine (`--threads N` parallelizes the sweep,
/// `--json PATH` dumps machine-readable results).
#include "scenario/cli.hpp"

#include <cstdio>

int main(int argc, char** argv) {
    using namespace realm::scenario;
    BenchOptions opts = parse_bench_args(argc, argv);

    std::puts("== Figure 6a: Susan under DSA-DMA contention vs fragmentation size ==");
    std::puts("(DMA: double-buffered 256-beat bursts LLC<->SPM, equal unconstrained");
    std::puts(" budgets, very large period -- isolating the fragmentation effect)\n");

    Sweep sweep = make_sweep("fig6a");
    const auto results = run_with_options(opts, sweep);
    const ScenarioResult& base = results[*sweep.baseline_index];

    std::printf("%-18s %12s %8s %9s %9s %9s %10s\n", "configuration", "cycles", "perf%",
                "lat_mean", "lat_max", "lat_min", "dma[B/cyc]");
    std::printf("%-18s %12llu %8.1f %9.2f %9llu %9llu %10s\n", "single-source",
                static_cast<unsigned long long>(base.run_cycles), 100.0,
                base.load_lat_mean, static_cast<unsigned long long>(base.load_lat_max),
                static_cast<unsigned long long>(base.load_lat_min), "-");
    for (std::size_t i = 1; i < results.size(); ++i) {
        const ScenarioResult& r = results[i];
        const double perf = 100.0 * static_cast<double>(base.run_cycles) /
                            static_cast<double>(r.run_cycles);
        std::printf("%-18s %12llu %8.1f %9.2f %9llu %9llu %10.2f\n", r.label.c_str(),
                    static_cast<unsigned long long>(r.run_cycles), perf, r.load_lat_mean,
                    static_cast<unsigned long long>(r.load_lat_max),
                    static_cast<unsigned long long>(r.load_lat_min), r.dma_read_bw);
    }

    std::puts("\npaper reference: without reservation < 0.7 % @ >= 264 cycles/access;");
    std::puts("fragmentation 1 -> 68.2 % of single-source @ < 10 cycles/access.");

    // Alternative calibration: a slower LLC descriptor pipeline (initiation
    // interval 2) lands on the paper's frag-1 *performance* figure while its
    // access latencies run higher than the paper's. In a pure blocking-load
    // model performance is fixed by the latency ratio, so one calibration
    // cannot hit both figures.
    std::puts("\n-- alternative LLC calibration (descriptor interval 2) --");
    Sweep alt = make_sweep("fig6a-llc2");
    BenchOptions alt_opts = opts;
    alt_opts.json_path.clear(); // the primary sweep owns the JSON dump
    const auto alt_results = run_with_options(alt_opts, alt);
    const ScenarioResult& b2 = alt_results[*alt.baseline_index];
    std::printf("%-18s %12s %8s %9s %9s\n", "configuration", "cycles", "perf%",
                "lat_mean", "lat_max");
    std::printf("%-18s %12llu %8.1f %9.2f %9llu\n", "single-source",
                static_cast<unsigned long long>(b2.run_cycles), 100.0, b2.load_lat_mean,
                static_cast<unsigned long long>(b2.load_lat_max));
    for (std::size_t i = 1; i < alt_results.size(); ++i) {
        const ScenarioResult& r = alt_results[i];
        const double perf = 100.0 * static_cast<double>(b2.run_cycles) /
                            static_cast<double>(r.run_cycles);
        std::printf("%-18s %12llu %8.1f %9.2f %9llu\n", r.label.c_str(),
                    static_cast<unsigned long long>(r.run_cycles), perf, r.load_lat_mean,
                    static_cast<unsigned long long>(r.load_lat_max));
    }
    return 0;
}
