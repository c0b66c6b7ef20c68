/// \file
/// \brief The paper's quantitative claims as a ledger: one row per claim
///        with the paper's value, the tolerance, the model's value and a
///        verdict (`match`, `partial` or `miss`), plus a one-line reason
///        for each row that is not a match.
///
/// The test prints the whole table, then asserts each row's verdict. A
/// known miss stays asserted as a miss, with its model value at the default
/// Susan image pinned, so a change that moves it shows. The Fig. 6 rows run
/// only the points they need, at three Susan input images: 42 (the default)
/// and `derive_seed("susan-image", 1)` and `(..., 2)`. The model column
/// gives the range over the images, and a verdict that differs between
/// them is `partial`. The claims are from PAPER.md and its extended
/// version, arXiv:2501.10161.
#include "area/area_model.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/rng.hpp"
#include "soc/cheshire_soc.hpp"
#include "traffic/core.hpp"
#include "traffic/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace realm {
namespace {

using scenario::ScenarioResult;

enum class Verdict : std::uint8_t { kMatch, kPartial, kMiss };

const char* name(Verdict v) {
    constexpr const char* kNames[] = {"match", "partial", "miss"};
    return kNames[static_cast<std::size_t>(v)];
}

Verdict holds(bool ok) { return ok ? Verdict::kMatch : Verdict::kMiss; }

/// The verdict of a claim with two parts: partial when they differ.
Verdict both(Verdict a, Verdict b) { return a == b ? a : Verdict::kPartial; }

/// One claim of the paper and what the model says about it.
struct Row {
    Row(std::string claim_, std::string paper_, std::string tolerance_, Verdict expected_,
        std::vector<double> pinned_ = {})
        : claim{std::move(claim_)}, paper{std::move(paper_)},
          tolerance{std::move(tolerance_)}, expected{expected_}, pinned{std::move(pinned_)} {}

    std::string claim;
    std::string paper;
    std::string tolerance; ///< "bound" when the paper's value is itself a bound
    Verdict expected;
    /// For a row expected not to match: its model values at the default
    /// image, in the order of `values`.
    std::vector<double> pinned;

    std::string model;
    Verdict verdict = Verdict::kMatch;
    std::vector<double> values; ///< model values at the default image
    std::string reason;         ///< why the row is not a match
};

/// Fills a row measured once, with no image to vary.
Row measured(Row row, std::string model, std::vector<double> values, Verdict verdict) {
    row.model = std::move(model);
    row.values = std::move(values);
    row.verdict = verdict;
    return row;
}

std::string format(const char* fmt, double v) {
    char buf[80];
    std::snprintf(buf, sizeof buf, fmt, v);
    return buf;
}

/// `values` printed with `fmt`: one number when every image reads the same,
/// else "lowest-highest".
std::string range(const std::vector<double>& values, const char* fmt) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    const std::string low = format(fmt, *lo);
    const std::string high = format(fmt, *hi);
    return low == high ? low : low + "-" + high;
}

/// The Fig. 6 points the ledger needs, at one Susan input image.
struct Fig6 {
    ScenarioResult single;         ///< fig6a: no DMA
    ScenarioResult no_reservation; ///< fig6a: 256-beat DMA fragments
    ScenarioResult frag1;          ///< fig6a: 1-beat DMA fragments
    ScenarioResult baseline;       ///< fig6b: no DMA
    ScenarioResult budget_1_5;     ///< fig6b: DMA budget 1/5 of the period
};

const scenario::ScenarioConfig& point(const scenario::Sweep& sweep, const std::string& label) {
    for (const scenario::SweepPoint& p : sweep.points) {
        if (p.label == label) { return p.config; }
    }
    throw std::logic_error{sweep.name + " has no point " + label};
}

/// Runs the Fig. 6 points at every image in one runner call.
std::vector<Fig6> run_fig6(const std::vector<std::uint64_t>& images) {
    const scenario::Sweep fig6a = scenario::make_sweep("fig6a");
    const scenario::Sweep fig6b = scenario::make_sweep("fig6b");
    const scenario::ScenarioConfig* const points[] = {
        &point(fig6a, "single-source"), &point(fig6a, "no-reserv. (256)"),
        &point(fig6a, "frag 1"),        &point(fig6b, "baseline"),
        &point(fig6b, "1/5"),
    };
    std::vector<scenario::ScenarioConfig> configs;
    for (const std::uint64_t image : images) {
        for (const scenario::ScenarioConfig* p : points) {
            configs.push_back(*p);
            configs.back().victim.susan.image_seed = image;
        }
    }
    const std::vector<ScenarioResult> r = scenario::ScenarioRunner{{.threads = 4}}.run(configs);
    for (const ScenarioResult& result : r) {
        EXPECT_TRUE(result.boot_ok && !result.timed_out) << result.label;
    }
    std::vector<Fig6> out;
    for (std::size_t i = 0; i + 5 <= r.size(); i += 5) {
        out.push_back({r[i], r[i + 1], r[i + 2], r[i + 3], r[i + 4]});
    }
    return out;
}

/// Victim performance against its no-DMA baseline, in percent.
double performance(const ScenarioResult& base, const ScenarioResult& r) {
    return 100.0 * static_cast<double>(base.run_cycles) / static_cast<double>(r.run_cycles);
}

/// Fills a Fig. 6 row. The model column is the `range` of `value` over the
/// images, printed with `fmt` and followed by `unit`; the verdict is
/// `judge`'s when every image agrees, else partial.
template <typename Value, typename Judge>
Row fig6_row(Row row, const std::vector<Fig6>& images, const char* fmt,
             const std::string& unit, Value value, Judge judge) {
    std::vector<double> values;
    row.verdict = judge(images.front());
    for (const Fig6& f : images) {
        values.push_back(value(f));
        row.verdict = both(row.verdict, judge(f));
    }
    row.model = range(values, fmt) + unit;
    row.values = {values.front()};
    return row;
}

/// Mean load latency of a single-source stream on the Cheshire SoC, with
/// or without REALM units on the managers' paths.
double stream_load_latency(bool realm_present) {
    constexpr axi::Addr kDram = 0x8000'0000;
    sim::SimContext ctx;
    soc::SocConfig cfg;
    cfg.realm_present = realm_present;
    soc::CheshireSoc soc{ctx, cfg};
    for (axi::Addr a = 0; a < 0x10000; a += 8) { soc.dram_image().write_u64(kDram + a, a); }
    soc.warm_llc(kDram, 0x10000);
    traffic::StreamWorkload wl{{.base = kDram, .bytes = 0x8000, .op_bytes = 8,
                                .stride_bytes = 8, .store_ratio16 = 4}};
    traffic::CoreModel core{ctx, "core", soc.core_port(), wl};
    EXPECT_TRUE(ctx.run_until([&] { return core.done(); }, 1'000'000));
    return core.load_latency().mean();
}

std::vector<Row> ledger() {
    using V = Verdict;
    const std::vector<Fig6> images = run_fig6(
        {42, sim::derive_seed("susan-image", 1), sim::derive_seed("susan-image", 2)});
    const Fig6& fig6 = images.front();
    const std::string frag1_max = std::to_string(fig6.frag1.load_lat_max);
    std::vector<Row> rows;

    rows.push_back(fig6_row(
        {"single-source load latency", "<= 8 cycles", "bound", V::kMatch}, images, "%.0f", "",
        [](const Fig6& f) { return f.single.load_lat_max; },
        [](const Fig6& f) { return holds(f.single.load_lat_max <= 8); }));

    const double overhead = stream_load_latency(true) - stream_load_latency(false);
    rows.push_back(measured({"REALM request overhead", "1 cycle", "+-0.05 cycles", V::kMatch},
                            format("%.2f", overhead), {overhead},
                            holds(std::abs(overhead - 1.0) <= 0.05)));

    rows.push_back(fig6_row(
        {"Fig. 6a, no reservation: shortest load latency", ">= 264 cycles", "bound",
         V::kMatch},
        images, "%.0f", "", [](const Fig6& f) { return f.no_reservation.load_lat_min; },
        [](const Fig6& f) { return holds(f.no_reservation.load_lat_min >= 264); }));

    const auto no_res_perf = [](const Fig6& f) {
        return performance(f.single, f.no_reservation);
    };
    rows.push_back(fig6_row(
        {"Fig. 6a, no reservation: performance", "< 0.7 %", "bound", V::kMiss, {2.791}},
        images, "%.2f", " %", no_res_perf,
        [&](const Fig6& f) { return holds(no_res_perf(f) < 0.7); }));
    rows.back().reason =
        "blocking loads floor performance at single-source over contended latency, " +
        format("%.2f / ", fig6.single.load_lat_mean) +
        format("%.1f = ", fig6.no_reservation.load_lat_mean) +
        format("%.2f %%", 100.0 * fig6.single.load_lat_mean /
                              fig6.no_reservation.load_lat_mean);

    const auto frag1_perf = [](const Fig6& f) { return performance(f.single, f.frag1); };
    rows.push_back(fig6_row(
        {"Fig. 6a, frag 1: performance", "68.2 %", "+-5 points", V::kMiss, {89.145}},
        images, "%.2f", " %", frag1_perf,
        [&](const Fig6& f) { return holds(std::abs(frag1_perf(f) - 68.2) <= 5.0); }));
    rows.back().reason = "68.2 % needs a mean load latency of at least " +
                         format("%.2f / 0.682 = ", fig6.single.load_lat_mean) +
                         format("%.1f cycles", fig6.single.load_lat_mean / 0.682) +
                         ", and the paper's own frag-1 latency is under 10";

    std::vector<double> maxima;
    for (const Fig6& f : images) { maxima.push_back(f.frag1.load_lat_max); }
    rows.push_back(fig6_row(
        {"Fig. 6a, frag 1: load latency", "< 10 cycles", "bound", V::kPartial, {9.024, 11}},
        images, "%.2f", ", max " + range(maxima, "%.0f"),
        [](const Fig6& f) { return f.frag1.load_lat_mean; },
        [](const Fig6& f) {
            return both(holds(f.frag1.load_lat_mean < 10), holds(f.frag1.load_lat_max < 10));
        }));
    rows.back().model.insert(0, "mean ");
    rows.back().values.push_back(fig6.frag1.load_lat_max);
    rows.back().reason = "the mean load is under 10 cycles, the worst takes " + frag1_max;

    rows.push_back(fig6_row(
        {"Fig. 6b, budget 1/5: performance", "> 95 %", "bound", V::kMatch}, images, "%.2f",
        " %", [](const Fig6& f) { return performance(f.baseline, f.budget_1_5); },
        [](const Fig6& f) { return holds(performance(f.baseline, f.budget_1_5) > 95.0); }));

    rows.push_back(fig6_row(
        {"Fig. 6b, budget 1/5: worst load latency", "< 8 cycles", "bound", V::kMiss, {11}},
        images, "%.0f", "", [](const Fig6& f) { return f.budget_1_5.load_lat_max; },
        [](const Fig6& f) { return holds(f.budget_1_5.load_lat_max < 8); }));
    rows.back().reason = "a budget shortens the contended part of each period, not a wait "
                         "inside it: frag 1 without a budget also peaks at " +
                         frag1_max;

    // The default parameters are the paper's Cheshire configuration (Table
    // I footnote b): 64-bit address and data, 8 outstanding, a 16-deep
    // write buffer, 2 regions and 3 units.
    const area::RealmParams p;
    const double table1 = area::paper_overhead_percent();
    const double table2 = area::model_overhead_percent(p);
    rows.push_back(measured(
        {"Table I: REALM area overhead", "2.45 %", "+-0.1 points", V::kPartial, {2.451, 2.720}},
        format("%.2f %% from Table I, ", table1) +
            format("%.2f %% from the Table II model", table2),
        {table1, table2},
        both(holds(std::abs(table1 - 2.45) <= 0.1), holds(std::abs(table2 - 2.45) <= 0.1))));
    rows.back().reason =
        format("the Table II model puts three RT units at %.1f kGE (paper 83.6)",
               3 * area::realm_unit_ge(p) / 1000.0) +
        format(" and RT CFG at %.1f kGE (paper 9.8)", area::config_file_ge(p) / 1000.0);

    // The write buffer against a manager that reserves write bandwidth and
    // trickles its data (Section III-A, Fig. 3b): points "wbuf disabled"
    // and "wbuf enabled".
    const std::vector<ScenarioResult> dos =
        scenario::ScenarioRunner{{.threads = 2}}.run(scenario::make_sweep("ablation-dos"));
    const double speedup =
        static_cast<double>(dos[0].run_cycles) / static_cast<double>(dos[1].run_cycles);
    rows.push_back(measured({"write buffer vs the stalling-write DoS: victim speed-up", "-",
                             ">= 1.5x", V::kMatch},
                            format("%.1fx", speedup), {speedup}, holds(speedup >= 1.5)));
    return rows;
}

TEST(PaperClaims, EveryRowReadsItsVerdict) {
    const std::vector<Row> rows = ledger();
    std::printf("%-56s %-14s %-14s %-52s %s\n", "claim", "paper", "tolerance", "model",
                "verdict");
    for (const Row& r : rows) {
        std::printf("%-56s %-14s %-14s %-52s %s\n", r.claim.c_str(), r.paper.c_str(),
                    r.tolerance.c_str(), r.model.c_str(), name(r.verdict));
        if (!r.reason.empty()) { std::printf("    why: %s\n", r.reason.c_str()); }
    }
    for (const Row& r : rows) {
        SCOPED_TRACE(r.claim);
        EXPECT_STREQ(name(r.verdict), name(r.expected));
        if (r.expected == Verdict::kMatch) { continue; }
        EXPECT_FALSE(r.reason.empty()) << "a row that is not a match says why";
        ASSERT_EQ(r.values.size(), r.pinned.size());
        for (std::size_t k = 0; k < r.pinned.size(); ++k) {
            EXPECT_NEAR(r.values[k], r.pinned[k], 0.0005) << "pinned value " << k;
        }
    }
}

} // namespace
} // namespace realm
