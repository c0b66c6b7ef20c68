/// \file
/// \brief Parallel sweep runner: executes independent scenario points on a
///        thread pool and renders text tables / machine-readable JSON.
///
/// Each point runs in its own `SimContext` (a scenario owns all simulation
/// state) with an RNG seed derived from the sweep name and point index, so
/// results are bit-identical for every thread count, including 1.
#pragma once

#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace realm::scenario {

struct RunnerOptions {
    /// Worker threads; 0 picks `std::thread::hardware_concurrency()`,
    /// divided by the widest per-point shard count so `threads x shards`
    /// never oversubscribes the host (each point spins up its own shard
    /// workers inside its private `SimContext`).
    unsigned threads = 1;
};

class ScenarioRunner {
public:
    explicit ScenarioRunner(RunnerOptions options = {}) : options_{options} {}

    /// Runs every point of the sweep; results are returned in point order
    /// regardless of completion order.
    [[nodiscard]] std::vector<ScenarioResult> run(const Sweep& sweep) const;

    /// Runs a bare list of configs (labels default to each config's name).
    [[nodiscard]] std::vector<ScenarioResult>
    run(const std::vector<ScenarioConfig>& configs) const;

    /// Sweep-level resume: reuses results parsed from `resume_path` (a
    /// previous `write_json` dump) for points whose `config_hash` matches,
    /// and simulates only the rest. Cheap incremental re-runs of big
    /// matrices: add points, tweak one cell, re-emit the whole file.
    /// \param reused_out  If non-null, receives the number of reused points.
    [[nodiscard]] std::vector<ScenarioResult>
    run_resumed(const Sweep& sweep, const std::string& resume_path,
                std::size_t* reused_out = nullptr) const;

    [[nodiscard]] const RunnerOptions& options() const noexcept { return options_; }

private:
    [[nodiscard]] std::vector<ScenarioResult>
    run_points(const std::vector<const ScenarioConfig*>& configs,
               const std::vector<std::string>& labels) const;

    RunnerOptions options_;
};

/// Writes the sweep's results as a JSON document, one point per line:
/// `{"sweep": ..., "points": [{label, config_hash, <kResultFields>...}, ...]}`.
/// `config_hash` (the resume key) is written for points within
/// `sweep.points`; the other keys follow the `kResultFields` table.
void write_json(std::ostream& os, const Sweep& sweep,
                const std::vector<ScenarioResult>& results);

/// Convenience: `write_json` to a file; returns false on I/O failure.
bool write_json_file(const std::string& path, const Sweep& sweep,
                     const std::vector<ScenarioResult>& results);

/// A dump that is not JSON, or whose values have the wrong type; `what()`
/// names the file and the byte offset of the offending token.
class MalformedDump : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// \name Dump loaders
/// Both parse a previous `write_json` dump with the same rules: a
/// missing file yields nothing (resume then runs every point); a file that
/// ends early yields exactly the points completed before the end (a search
/// checkpoint killed mid-write); anything else that is not valid JSON of
/// the right types throws `MalformedDump`. Formatting is free, so a
/// re-indented dump loads like the original. A complete point must hold
/// each key `write_json` writes for it exactly once: `label`, every
/// always-written result key, and the monitor keys when `mon_enabled` is
/// true. `config_hash` and `profile` may be absent. An unknown, repeated or
/// missing key throws `MalformedDump` naming the key and its byte offset.
///@{
/// Results keyed by `config_hash` — the resume key, stable across label
/// renames. Points without a hash are skipped.
[[nodiscard]] std::unordered_map<std::uint64_t, ScenarioResult>
load_json_results(const std::string& path);

/// Results keyed by point *label* — the report-to-report key: labels are
/// stable across code changes that move `config_hash` (that is the point
/// of the differ).
[[nodiscard]] std::unordered_map<std::string, ScenarioResult>
load_json_results_by_label(const std::string& path);
///@}

/// \name Report-to-report regression diffing
///@{
/// One compared point of `diff_against_baseline`.
struct DiffEntry {
    std::string label;
    std::uint64_t baseline_worst = 0; ///< worst-case victim latency, baseline
    std::uint64_t current_worst = 0;  ///< worst-case victim latency, this run
    bool missing_in_baseline = false; ///< new point (informational)
    bool regressed = false;
    /// \name Host-speed gate (filled only when `speed_threshold > 0`)
    ///@{
    double baseline_speed = 0; ///< sim cycles / wall second, baseline
    double current_speed = 0;  ///< sim cycles / wall second, this run
    bool speed_regressed = false;
    ///@}
};

struct DiffReport {
    std::vector<DiffEntry> entries; ///< in result order
    std::size_t compared = 0;       ///< points present in both runs
    std::size_t regressions = 0;
    std::size_t speed_compared = 0; ///< points with a usable speed on both sides
    std::size_t speed_regressions = 0;
    [[nodiscard]] bool ok() const noexcept { return regressions == 0; }
    [[nodiscard]] bool speed_ok() const noexcept { return speed_regressions == 0; }
};

/// Compares each result's worst-case victim latency (max of load/store
/// latency maxima, the DoS-matrix cell metric) against a previous run's
/// JSON dump at `baseline_path`, keyed by label. A point regresses when it
/// exceeds the baseline by more than `rel_threshold` (fractional) *and*
/// more than `abs_slack` cycles — the slack keeps single-digit-latency
/// cells from tripping on one-cycle jitter — or when it times out / fails
/// to boot where the baseline did not. Points absent from the baseline are
/// reported as new, never as regressions.
///
/// A non-zero `speed_threshold` additionally gates the host-side simulation
/// speed (`simulated_cycles / wall_seconds`, recomputed from the baseline's
/// stored fields): a point speed-regresses when it runs slower than
/// `baseline * (1 - speed_threshold)` *and* slower than
/// `baseline - speed_slack` cycles/sec — an absolute slack that keeps
/// millisecond-scale points from tripping on scheduler jitter. Speed
/// regressions are tallied separately (`speed_regressions` / `speed_ok()`)
/// so the latency gate's verdict is unchanged by the speed gate and CI can
/// report them as distinct failures.
[[nodiscard]] DiffReport diff_against_baseline(const std::string& baseline_path,
                                               const std::vector<ScenarioResult>& results,
                                               double rel_threshold = 0.10,
                                               std::uint64_t abs_slack = 50,
                                               double speed_threshold = 0.0,
                                               double speed_slack = 50'000.0);
///@}

} // namespace realm::scenario
