/// \file
/// \brief Failure guard and determinism fingerprint shared by the benchmark
///        driver and its self-test.
#pragma once

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

#include <chrono>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

namespace perfbench {

/// One guarded `run_scenario` call.
struct Outcome {
    /// Empty when the call threw.
    std::optional<realm::scenario::ScenarioResult> result;
    /// Why the point failed; empty when it did not.
    std::string error;
    /// Host seconds of the call, timed from outside.
    double seconds = 0;
};

/// Runs one point. An exception (a `sim::ContractViolation` from a bad
/// config or a broken invariant) becomes a failed outcome carrying its
/// message instead of ending the process; so do a failed boot and a timeout
/// the point does not expect.
inline Outcome run_guarded(const realm::scenario::ScenarioConfig& cfg,
                           const std::string& label, bool timeout_ok) {
    Outcome out;
    const auto start = std::chrono::steady_clock::now();
    try {
        out.result = realm::scenario::run_scenario(cfg, label);
    } catch (const std::exception& e) {
        out.error = e.what();
    }
    out.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (!out.result) { return out; }
    if (!out.result->boot_ok) {
        out.error = "boot failed";
    } else if (out.result->timed_out && !timeout_ok) {
        out.error = "timed out after " + std::to_string(cfg.max_cycles) + " cycles";
    }
    return out;
}

/// Every simulated field of a result, serialised by the sweep JSON writer
/// with the host-side fields (wall time, profile) cleared. Two runs of one
/// config must produce the same fingerprint.
inline std::string fingerprint(realm::scenario::ScenarioResult r) {
    r.wall_seconds = 0;
    r.profile.clear();
    realm::scenario::Sweep sweep;
    sweep.name = "fingerprint";
    std::ostringstream os;
    realm::scenario::write_json(os, sweep, {std::move(r)});
    return std::move(os).str();
}

} // namespace perfbench
