// Self-test of the benchmark's failure guard and determinism fingerprint.
//
// The crossbar cell `0atk/hog/budget` of `xbar-dos-smoke` gets one boot plan
// while the SoC has two REALM units, so `run_scenario` throws a contract
// violation. The guard must count it as a failed point with that message and
// let the process go on to run the next point.
#include "guard.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

int failures = 0;

void check(bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok" : "FAILED", what);
    if (!ok) { ++failures; }
}

const realm::scenario::SweepPoint& find_point(const realm::scenario::Sweep& sweep,
                                              const std::string& label) {
    for (const realm::scenario::SweepPoint& p : sweep.points) {
        if (p.label == label) { return p; }
    }
    std::printf("FAILED: no point %s in %s\n", label.c_str(), sweep.name.c_str());
    std::exit(1);
}

} // namespace

int main() {
    const realm::scenario::Sweep smoke = realm::scenario::make_sweep("xbar-dos-smoke");

    const auto& bad = find_point(smoke, "0atk/hog/budget");
    const perfbench::Outcome broken = perfbench::run_guarded(bad.config, bad.label, false);
    check(!broken.result.has_value(), "0atk/hog/budget yields no result");
    check(broken.error.find("one boot plan per REALM unit") != std::string::npos,
          "0atk/hog/budget fails with the boot-plan message");

    const auto& good = find_point(smoke, "1atk/hog/budget");
    const perfbench::Outcome a = perfbench::run_guarded(good.config, good.label, false);
    const perfbench::Outcome b = perfbench::run_guarded(good.config, good.label, false);
    check(a.error.empty() && a.result.has_value(), "1atk/hog/budget runs after the failure");
    check(a.result && b.result &&
              perfbench::fingerprint(*a.result) == perfbench::fingerprint(*b.result),
          "repeated runs have equal fingerprints");

    if (a.result) {
        realm::scenario::ScenarioResult changed = *a.result;
        changed.load_lat_max += 1;
        check(perfbench::fingerprint(changed) != perfbench::fingerprint(*a.result),
              "a changed simulated field changes the fingerprint");
        changed = *a.result;
        changed.wall_seconds += 1.0;
        check(perfbench::fingerprint(changed) == perfbench::fingerprint(*a.result),
              "host wall time is not part of the fingerprint");
    }

    realm::scenario::ScenarioConfig short_budget = good.config;
    short_budget.max_cycles = 10;
    const perfbench::Outcome timeout =
        perfbench::run_guarded(short_budget, good.label, false);
    check(timeout.error.find("timed out") != std::string::npos,
          "an unexpected timeout fails the point");
    const perfbench::Outcome expected =
        perfbench::run_guarded(short_budget, good.label, true);
    check(expected.error.empty(), "an expected timeout does not fail the point");

    return failures == 0 ? 0 : 1;
}
