/// \file
/// \brief Shared command-line handling for the scenario-driven benches:
///        `--threads N`, `--json PATH`, `--report PATH`, `--resume`,
///        `--diff BASELINE.json [--diff-threshold F] [--diff-slack N]`
///        `[--speed-threshold F] [--speed-slack C]`,
///        `--scheduler tick-all|activity`, `--shards N`,
///        `--routing xy|yx|o1turn|west-first`, `--link-latency L`,
///        `--profile`, `--monitors` and `--list`.
#pragma once

#include "noc/routing.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"

#include "sim/context.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace realm::scenario {

/// The value of an unsigned flag: decimal digits only, in [lo, hi]. Anything
/// else (a sign, a space, no digits, a number out of range) prints
/// "FLAG expects WHAT, got 'VALUE'" and exits 2. Built on `std::from_chars`,
/// which rejects a sign; `strtoul` would negate a leading `-`.
inline std::uint64_t parse_unsigned_flag(
    const char* flag, const char* value, const char* what, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
    const char* const end = value + std::strlen(value);
    std::uint64_t n = 0;
    const auto [stop, ec] = std::from_chars(value, end, n);
    if (ec != std::errc{} || stop != end || n < lo || n > hi) {
        std::fprintf(stderr, "%s expects %s, got '%s'\n", flag, what, value);
        std::exit(2);
    }
    return n;
}

/// The value of a real-valued flag: a finite decimal number in [lo, hi).
/// NaN, infinities, hex, a leading `+`, trailing text and values that
/// overflow a double print "FLAG expects WHAT, got 'VALUE'" and exit 2.
/// Built on `std::from_chars` in general format, which rejects hex;
/// `strtod` would accept all of these, and NaN fails every range check.
inline double parse_real_flag(const char* flag, const char* value, const char* what,
                              double lo = 0.0,
                              double hi = std::numeric_limits<double>::infinity()) {
    const char* const end = value + std::strlen(value);
    double x = 0.0;
    const auto [stop, ec] = std::from_chars(value, end, x, std::chars_format::general);
    if (ec != std::errc{} || stop != end || !std::isfinite(x) || x < lo || x >= hi) {
        std::fprintf(stderr, "%s expects %s, got '%s'\n", flag, what, value);
        std::exit(2);
    }
    return x;
}

struct BenchOptions {
    RunnerOptions runner{};
    std::string json_path;
    /// Rendered markdown report (`--report PATH.md`) — the reviewable CI
    /// artifact complementing the machine-readable JSON dump.
    std::string report_path;
    /// With `--json`: reuse results from an existing dump at the same path
    /// for points whose config hash matches (sweep-level resume).
    bool resume = false;
    /// Report-to-report regression gate: compare each point's worst-case
    /// victim latency against a previous run's JSON dump (keyed by label)
    /// and make the bench exit non-zero past the threshold.
    std::string diff_path;
    double diff_threshold = 0.10;  ///< fractional growth allowed per cell
    std::uint64_t diff_slack = 50; ///< plus this many absolute cycles
    /// Host-speed gate on top of `--diff`: fail when a point simulates
    /// slower than `baseline_speed * (1 - speed_threshold)` and slower than
    /// `baseline_speed - speed_slack` cycles/sec. 0 disables the gate
    /// (default — CI enables it explicitly on dedicated runners, since
    /// host speed is meaningless to compare across machines).
    double speed_threshold = 0.0;
    double speed_slack = 50'000.0; ///< absolute cycles/sec jitter allowance
    sim::Scheduler scheduler = sim::Scheduler::kActivity;
    bool scheduler_forced = false; ///< --scheduler given on the command line
    /// `--shards N`: spatial shards of the simulation kernel, forced onto
    /// every mesh point, the only fabric that places tiles on shards
    /// (bit-identical results for every value; see sim/context.hpp). 1
    /// keeps the single-thread kernel.
    unsigned shards = 1;
    bool shards_forced = false; ///< --shards given on the command line
    /// `--routing`: force one routing policy on every mesh point (handy for
    /// re-running a whole matrix under one policy without a new sweep).
    std::optional<noc::RoutingPolicy> routing;
    /// `--link-latency L`: force a uniform L-cycle link pipeline on every
    /// NoC point (semantic — changes results and the config hash). On the
    /// mesh this is also the sharded kernel's barrier batch length.
    std::optional<std::uint32_t> link_latency;
    /// `--profile`: arm the cycle-attribution profiler on every point; the
    /// per-(type, shard) wall-time table lands in the JSON dump and the
    /// markdown report. Host-side observability only (a host-only config
    /// field), so it composes with `--resume` — though reused points carry
    /// no profile, having never re-run.
    bool profile = false;
    /// `--monitors`: enable the transaction-monitoring plane on every point.
    bool monitors = false;
    /// Non-flag arguments, in order (e.g. sweep names for `scenario_sweep`).
    std::vector<std::string> positional;
};

/// Parses the common bench flags; prints usage and exits on error/--help,
/// lists registered sweeps and exits on --list. Non-flag arguments are
/// collected into `positional` only when `accept_positional` is set;
/// otherwise they are rejected as before.
inline BenchOptions parse_bench_args(int argc, char** argv,
                                     bool accept_positional = false) {
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--threads" || arg == "-j") {
            opts.runner.threads = static_cast<unsigned>(
                parse_unsigned_flag("--threads", need_value("--threads"), "a number", 0,
                                    std::numeric_limits<unsigned>::max()));
        } else if (arg == "--json") {
            opts.json_path = need_value("--json");
        } else if (arg == "--report") {
            opts.report_path = need_value("--report");
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--diff") {
            opts.diff_path = need_value("--diff");
        } else if (arg == "--diff-threshold") {
            opts.diff_threshold = parse_real_flag(
                "--diff-threshold", need_value("--diff-threshold"), "a non-negative fraction");
        } else if (arg == "--diff-slack") {
            opts.diff_slack = parse_unsigned_flag("--diff-slack", need_value("--diff-slack"),
                                                  "a cycle count");
        } else if (arg == "--speed-threshold") {
            opts.speed_threshold =
                parse_real_flag("--speed-threshold", need_value("--speed-threshold"),
                                "a fraction in [0, 1)", 0.0, 1.0);
        } else if (arg == "--speed-slack") {
            opts.speed_slack =
                parse_real_flag("--speed-slack", need_value("--speed-slack"),
                                "a non-negative cycles/sec count");
        } else if (arg == "--shards") {
            opts.shards = static_cast<unsigned>(parse_unsigned_flag(
                "--shards", need_value("--shards"), "a count in [1, 64]", 1, 64));
            opts.shards_forced = true;
        } else if (arg == "--scheduler") {
            const std::string v = need_value("--scheduler");
            if (v == "tick-all" || v == "tickall") {
                opts.scheduler = sim::Scheduler::kTickAll;
            } else if (v == "activity") {
                opts.scheduler = sim::Scheduler::kActivity;
            } else {
                std::fprintf(stderr, "unknown scheduler '%s'\n", v.c_str());
                std::exit(2);
            }
            opts.scheduler_forced = true;
        } else if (arg == "--profile") {
            opts.profile = true;
        } else if (arg == "--monitors") {
            opts.monitors = true;
        } else if (arg == "--link-latency") {
            opts.link_latency = static_cast<std::uint32_t>(
                parse_unsigned_flag("--link-latency", need_value("--link-latency"),
                                    "a cycle count in [1, 64]", 1, 64));
        } else if (arg == "--routing") {
            const std::string v = need_value("--routing");
            const auto policy = noc::parse_routing_policy(v);
            if (!policy.has_value()) {
                std::fprintf(stderr,
                             "unknown routing policy '%s' (xy|yx|o1turn|west-first)\n",
                             v.c_str());
                std::exit(2);
            }
            opts.routing = *policy;
        } else if (arg == "--list") {
            for (const std::string& name : sweep_names()) {
                std::printf("%s\n", name.c_str());
            }
            std::exit(0);
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s %s[--threads N] [--shards N] [--json PATH] "
                        "[--report PATH.md] [--resume] [--diff BASELINE.json] "
                        "[--diff-threshold F] [--diff-slack N] "
                        "[--speed-threshold F] [--speed-slack C] "
                        "[--scheduler tick-all|activity] "
                        "[--routing xy|yx|o1turn|west-first] [--link-latency L] "
                        "[--profile] [--monitors] [--list]\n",
                        argv[0], accept_positional ? "[sweep...] " : "");
            std::exit(0);
        } else if (accept_positional && !arg.empty() && arg[0] != '-') {
            opts.positional.push_back(arg);
        } else {
            std::fprintf(stderr, "unknown argument '%s' (try --help)\n", arg.c_str());
            std::exit(2);
        }
    }
    if (opts.resume && opts.json_path.empty()) {
        std::fprintf(stderr, "--resume requires --json PATH\n");
        std::exit(2);
    }
    return opts;
}

/// Runs `load`; a malformed input dump ends the process with its message
/// (file and byte offset) and exit code 2, like a malformed flag.
template <typename F>
auto load_or_exit(F&& load) {
    try {
        return load();
    } catch (const MalformedDump& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

/// Applies the flags that override config fields to every point whose
/// fabric has that field: `--shards` and `--routing` to the mesh points,
/// `--link-latency` to the NoC points.
inline void apply_overrides(const BenchOptions& opts, Sweep& sweep) {
    for (SweepPoint& p : sweep.points) {
        if (opts.scheduler_forced) { p.config.scheduler = opts.scheduler; }
        auto* mesh = std::get_if<MeshTopologyConfig>(&p.config.fabric);
        if (opts.shards_forced && mesh != nullptr) { p.config.shards = opts.shards; }
        if (opts.routing.has_value() && mesh != nullptr) { mesh->routing = *opts.routing; }
        NocTopologyConfig* noc = noc_config(p.config.fabric);
        if (opts.link_latency.has_value() && noc != nullptr) {
            noc->link_latency = *opts.link_latency;
        }
        if (opts.profile) { p.config.profile = true; }
        if (opts.monitors) { p.config.monitors.enabled = true; }
    }
}

/// Runs a sweep under the CLI options and optionally writes the JSON dump.
/// Points that failed to boot or timed out are flagged on stderr so a
/// garbage table row never passes silently.
inline std::vector<ScenarioResult> run_with_options(const BenchOptions& opts,
                                                    Sweep& sweep) {
    apply_overrides(opts, sweep);
    const ScenarioRunner runner{opts.runner};
    std::vector<ScenarioResult> results;
    if (opts.resume) {
        std::size_t reused = 0;
        results = load_or_exit(
            [&] { return runner.run_resumed(sweep, opts.json_path, &reused); });
        std::fprintf(stderr, "%s: reused %zu/%zu points from %s\n",
                     sweep.name.c_str(), reused, sweep.points.size(),
                     opts.json_path.c_str());
    } else {
        results = runner.run(sweep);
    }
    for (const ScenarioResult& r : results) {
        if (!r.boot_ok) {
            std::fprintf(stderr, "%s: boot script did not complete\n", r.label.c_str());
        } else if (r.timed_out) {
            std::fprintf(stderr, "%s: experiment timed out after %llu cycles\n",
                         r.label.c_str(),
                         static_cast<unsigned long long>(r.run_cycles));
        }
    }
    if (!opts.json_path.empty() &&
        !write_json_file(opts.json_path, sweep, results)) {
        // The JSON artifact was explicitly requested; a consumer checking
        // only the exit code must not read a stale or missing file.
        std::fprintf(stderr, "failed to write JSON to %s\n", opts.json_path.c_str());
        std::exit(3);
    }
    if (!opts.report_path.empty() &&
        !write_report_file(opts.report_path, sweep, results)) {
        std::fprintf(stderr, "failed to write report to %s\n",
                     opts.report_path.c_str());
        std::exit(3);
    }
    return results;
}

/// Runs the `--diff` regression gate against the baseline dump and prints
/// one line per regressed (or new) cell. Returns the process exit code
/// contribution: 0 when clean, 4 when any cell regressed past the
/// threshold, 5 when the baseline had no comparable points at all (a diff
/// against nothing must not pass silently).
inline int check_diff(const BenchOptions& opts, const Sweep& sweep,
                      const std::vector<ScenarioResult>& results) {
    if (opts.diff_path.empty()) { return 0; }
    const DiffReport diff = load_or_exit([&] {
        return diff_against_baseline(opts.diff_path, results, opts.diff_threshold,
                                     opts.diff_slack, opts.speed_threshold,
                                     opts.speed_slack);
    });
    for (const DiffEntry& e : diff.entries) {
        if (e.missing_in_baseline) {
            std::fprintf(stderr, "%s: diff: '%s' not in baseline (new point)\n",
                         sweep.name.c_str(), e.label.c_str());
            continue;
        }
        if (e.regressed) {
            std::fprintf(stderr,
                         "%s: diff REGRESSION: '%s' worst-case victim latency "
                         "%llu -> %llu cycles (threshold %+.0f%% + %llu)\n",
                         sweep.name.c_str(), e.label.c_str(),
                         static_cast<unsigned long long>(e.baseline_worst),
                         static_cast<unsigned long long>(e.current_worst),
                         opts.diff_threshold * 100.0,
                         static_cast<unsigned long long>(opts.diff_slack));
        }
        if (e.speed_regressed) {
            std::fprintf(stderr,
                         "%s: diff SPEED REGRESSION: '%s' host speed "
                         "%.3g -> %.3g sim cycles/sec (threshold -%.0f%% - %.3g)\n",
                         sweep.name.c_str(), e.label.c_str(), e.baseline_speed,
                         e.current_speed, opts.speed_threshold * 100.0,
                         opts.speed_slack);
        }
    }
    if (diff.compared == 0) {
        std::fprintf(stderr, "%s: diff: baseline %s has no comparable points\n",
                     sweep.name.c_str(), opts.diff_path.c_str());
        return 5;
    }
    std::fprintf(stderr, "%s: diff vs %s: %zu/%zu cells compared, %zu regression%s\n",
                 sweep.name.c_str(), opts.diff_path.c_str(), diff.compared,
                 results.size(), diff.regressions,
                 diff.regressions == 1 ? "" : "s");
    if (opts.speed_threshold > 0.0) {
        if (diff.speed_compared == 0) {
            // A speed gate with nothing to compare must not read as a pass:
            // it degrades to a loud warning (the latency gate still ran, so
            // this is not the exit-5 "diff against nothing" case).
            std::fprintf(stderr,
                         "%s: diff speed gate WARNING: no usable baseline "
                         "speeds in %s — gate skipped, not passed\n",
                         sweep.name.c_str(), opts.diff_path.c_str());
        } else {
            std::fprintf(stderr,
                         "%s: diff speed gate: %zu/%zu cells compared, "
                         "%zu speed regression%s\n",
                         sweep.name.c_str(), diff.speed_compared, results.size(),
                         diff.speed_regressions,
                         diff.speed_regressions == 1 ? "" : "s");
        }
    }
    return diff.ok() && diff.speed_ok() ? 0 : 4;
}

} // namespace realm::scenario
