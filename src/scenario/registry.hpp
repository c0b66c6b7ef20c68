/// \file
/// \brief Named scenario sweeps: every experiment table in this repo as a
///        declarative list of `ScenarioConfig`s, buildable by name.
///
/// A sweep bundles the experiment points of one figure/table (baseline
/// included), the heading and footnotes `scenario_sweep` and `--report`
/// print, and the index of the point that serves as the 100 %-performance
/// reference. Benches, tests, and the JSON emitter all consume the same
/// structure, so a new experiment is one factory function here — no new
/// harness code.
#pragma once

#include "scenario/scenario.hpp"

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace realm::scenario {

/// One experiment point of a sweep.
struct SweepPoint {
    std::string label;
    ScenarioConfig config;
};

/// A named family of scenario points (typically one figure or table).
struct Sweep {
    std::string name;
    std::string title;               ///< heading line of the table and report
    std::vector<std::string> notes;  ///< trailing commentary lines
    /// Point whose `run_cycles` is the 100 % performance reference.
    std::optional<std::size_t> baseline_index;
    std::vector<SweepPoint> points;
};

/// Names of all registered sweeps, in registration order.
[[nodiscard]] std::vector<std::string> sweep_names();

/// True when `name` is a registered sweep.
[[nodiscard]] bool has_sweep(const std::string& name);

/// Builds the named sweep (aborts via contract violation when unknown; use
/// `has_sweep` to probe). Each point's `seed` is `derive_seed(name, index)`.
[[nodiscard]] Sweep make_sweep(const std::string& name);

} // namespace realm::scenario
