/// Tests for the monitoring plane: quantile-sketch accuracy and merge
/// determinism, the TxnMonitor FSM on crafted AXI traces, and scenario-level
/// detection (attack coverage, false-positive grounds, shard invariance).
#include "axi/builder.hpp"
#include "axi/channel.hpp"
#include "mon/detector.hpp"
#include "mon/quantile.hpp"
#include "mon/txn_monitor.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/context.hpp"

#include "same_result.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace realm::mon {
namespace {

// --- QuantileSketch: bucket layout ------------------------------------------

TEST(QuantileSketch, SmallValuesAreExact) {
    // Below 2^kSubBits every value owns its own bucket.
    for (std::uint64_t v = 0; v < (1u << QuantileSketch::kSubBits); ++v) {
        EXPECT_EQ(QuantileSketch::bucket_index(v), v);
        EXPECT_EQ(QuantileSketch::bucket_upper_edge(v), v);
    }
}

TEST(QuantileSketch, BucketEdgesTileTheRange) {
    // Every bucket's upper edge maps back to that bucket, and the next value
    // maps to the next bucket: the buckets tile [0, 2^(kMaxExp+1)) exactly.
    for (std::size_t i = 0; i + 1 < QuantileSketch::kBuckets; ++i) {
        const std::uint64_t edge = QuantileSketch::bucket_upper_edge(i);
        EXPECT_EQ(QuantileSketch::bucket_index(edge), i) << "edge " << edge;
        EXPECT_EQ(QuantileSketch::bucket_index(edge + 1), i + 1) << "edge " << edge;
    }
}

TEST(QuantileSketch, RelativeBucketWidthIsBounded) {
    // Upper edge / lower edge stays below 1 + kRelativeErrorBound: that ratio
    // is the whole accuracy argument for quantile().
    for (std::size_t i = 1; i + 1 < QuantileSketch::kBuckets; ++i) {
        const double lo = static_cast<double>(QuantileSketch::bucket_upper_edge(i - 1)) + 1.0;
        const double hi = static_cast<double>(QuantileSketch::bucket_upper_edge(i));
        EXPECT_LT(hi / lo, 1.0 + QuantileSketch::kRelativeErrorBound) << "bucket " << i;
    }
}

// --- QuantileSketch: accuracy against exact quantiles ------------------------

/// Exact nearest-rank quantile (the definition quantile() approximates).
std::uint64_t exact_quantile(std::vector<std::uint64_t> samples, double q) {
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(samples.size()))));
    auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

void expect_within_documented_bounds(const std::vector<std::uint64_t>& samples,
                                     const char* what) {
    QuantileSketch sk;
    for (std::uint64_t v : samples) { sk.record(v); }
    ASSERT_EQ(sk.count(), samples.size());
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const std::uint64_t exact = exact_quantile(samples, q);
        const std::uint64_t approx = sk.quantile(q);
        EXPECT_GE(approx, exact) << what << " q=" << q;
        EXPECT_LE(static_cast<double>(approx),
                  static_cast<double>(exact) *
                      (1.0 + QuantileSketch::kRelativeErrorBound))
            << what << " q=" << q;
    }
    EXPECT_EQ(sk.min(), *std::min_element(samples.begin(), samples.end()));
    EXPECT_EQ(sk.max(), *std::max_element(samples.begin(), samples.end()));
}

TEST(QuantileSketch, AccurateOnAdversarialDistributions) {
    // Deterministic LCG so the test is reproducible without <random>.
    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    const auto next = [&state] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    };

    std::vector<std::uint64_t> uniform;
    for (int i = 0; i < 20000; ++i) { uniform.push_back(next() % 100000); }
    expect_within_documented_bounds(uniform, "uniform");

    // Heavy tail: mostly fast hits with a 1% tail three decades out -- the
    // shape a DoS victim's latency distribution actually takes.
    std::vector<std::uint64_t> heavy;
    for (int i = 0; i < 20000; ++i) {
        heavy.push_back(i % 100 == 0 ? 50000 + next() % 500000 : 20 + next() % 80);
    }
    expect_within_documented_bounds(heavy, "heavy-tail");

    // Sorted input (ascending and descending): order must not matter.
    std::vector<std::uint64_t> asc = heavy;
    std::sort(asc.begin(), asc.end());
    expect_within_documented_bounds(asc, "ascending");
    std::vector<std::uint64_t> desc = asc;
    std::reverse(desc.begin(), desc.end());
    expect_within_documented_bounds(desc, "descending");

    // Bimodal with an extreme gap.
    std::vector<std::uint64_t> bimodal;
    for (int i = 0; i < 1000; ++i) { bimodal.push_back(i % 2 == 0 ? 3 : 1'000'000); }
    expect_within_documented_bounds(bimodal, "bimodal");
}

TEST(QuantileSketch, ConstantDistributionIsExactEverywhere) {
    QuantileSketch sk;
    for (int i = 0; i < 1000; ++i) { sk.record(17); }
    for (const double q : {0.0, 0.5, 0.99, 1.0}) { EXPECT_EQ(sk.quantile(q), 17U); }
    EXPECT_EQ(sk.min(), 17U);
    EXPECT_EQ(sk.max(), 17U);
    EXPECT_EQ(sk.sum(), 17000U);
}

TEST(QuantileSketch, EmptySketchReturnsZero) {
    const QuantileSketch sk;
    EXPECT_EQ(sk.count(), 0U);
    EXPECT_EQ(sk.quantile(0.5), 0U);
    EXPECT_EQ(sk.min(), 0U);
    EXPECT_EQ(sk.max(), 0U);
    EXPECT_EQ(sk.mean(), 0.0);
}

TEST(QuantileSketch, HugeSamplesClampToExactMax) {
    QuantileSketch sk;
    const std::uint64_t huge = std::uint64_t{1} << 50; // beyond kMaxExp octaves
    sk.record(huge);
    sk.record(10);
    EXPECT_EQ(sk.quantile(1.0), huge) << "clamped to the exact maximum";
    EXPECT_EQ(sk.max(), huge);
}

// --- QuantileSketch: merge = feed-all, any order -----------------------------

TEST(QuantileSketch, ShardMergeMatchesFeedAllInAnyOrder) {
    std::uint64_t state = 12345;
    const auto next = [&state] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    };
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 4096; ++i) { samples.push_back(next() % 1'000'000); }

    QuantileSketch all;
    for (std::uint64_t v : samples) { all.record(v); }

    // Deal the stream round-robin over 4 "shards".
    QuantileSketch shard[4];
    for (std::size_t i = 0; i < samples.size(); ++i) { shard[i % 4].record(samples[i]); }

    QuantileSketch fwd; // 0,1,2,3
    for (const auto& s : shard) { fwd.merge(s); }
    QuantileSketch rev; // 3,2,1,0
    for (int i = 3; i >= 0; --i) { rev.merge(shard[i]); }

    EXPECT_TRUE(fwd == all);
    EXPECT_TRUE(rev == all);
    EXPECT_EQ(fwd.count(), all.count());
    EXPECT_EQ(fwd.sum(), all.sum());
    EXPECT_EQ(fwd.min(), all.min());
    EXPECT_EQ(fwd.max(), all.max());
    EXPECT_EQ(fwd.quantile(0.999), all.quantile(0.999));
}

// --- Detector scoring --------------------------------------------------------

TEST(Detector, SignalNamesJoinWithPlus) {
    EXPECT_EQ(signal_names(kSignalNone), "-");
    EXPECT_EQ(signal_names(kSignalBandwidth), "bw");
    EXPECT_EQ(signal_names(kSignalBackpressure | kSignalWGap), "held+wgap");
    EXPECT_EQ(signal_names(kSignalBandwidth | kSignalBackpressure | kSignalWGap),
              "bw+held+wgap");
}

TEST(Detector, ScoreCountsConfusionAndFastestDetect) {
    const std::vector<Verdict> verdicts{
        {.hostile = true, .flagged = true, .signals = kSignalBandwidth, .time_to_detect = 900},
        {.hostile = true, .flagged = true, .signals = kSignalWGap, .time_to_detect = 120},
        {.hostile = true, .flagged = false},
        {.hostile = false, .flagged = true, .signals = kSignalBackpressure, .time_to_detect = 50},
        {.hostile = false, .flagged = false},
    };
    const DetectionScore score = score_verdicts(verdicts);
    EXPECT_EQ(score.true_positives, 2U);
    EXPECT_EQ(score.false_positives, 1U);
    EXPECT_EQ(score.false_negatives, 1U);
    EXPECT_EQ(score.first_detect, 120U) << "fastest TP, not the benign FP";
}

TEST(Detector, EmptyAndAllCleanScoreZero) {
    EXPECT_EQ(score_verdicts({}).true_positives, 0U);
    const std::vector<Verdict> clean{{.hostile = false, .flagged = false}};
    const DetectionScore score = score_verdicts(clean);
    EXPECT_EQ(score.true_positives + score.false_positives + score.false_negatives, 0U);
    EXPECT_EQ(score.first_detect, 0U);
}

// --- TxnMonitor FSM on crafted traces ----------------------------------------

/// The monitor tapping one hand-driven `port`, pushed into as the manager and
/// drained as the subordinate, in the style of test_axi's CheckerFixture.
class MonitorFixture : public ::testing::Test {
protected:
    sim::SimContext ctx;
    axi::AxiChannel port{ctx, "port"};
    axi::ManagerView mgr{port};
    axi::SubordinateView sub{port};

    /// The subordinate accepts every request the port shows this cycle.
    void accept_requests() {
        while (sub.has_aw()) { sub.recv_aw(); }
        while (sub.has_w()) { sub.recv_w(); }
        while (sub.has_ar()) { sub.recv_ar(); }
    }
};

TEST_F(MonitorFixture, CleanWriteRecordsOneLatencySample) {
    TxnMonitor monitor{ctx, "mon", port};
    mgr.send_aw(axi::make_aw(1, 0x1000, 2, 3));
    ctx.step();
    axi::WFlit w0;
    w0.last = false;
    mgr.send_w(w0);
    ctx.step();
    axi::WFlit w1;
    w1.last = true;
    mgr.send_w(w1);
    ctx.run(3);
    // Accept the request and answer it.
    accept_requests();
    axi::BFlit b;
    b.id = 1;
    sub.send_b(b);
    ctx.run(3);

    EXPECT_EQ(monitor.aw_count(), 1U);
    EXPECT_EQ(monitor.write_sketch().count(), 1U);
    EXPECT_GT(monitor.write_sketch().min(), 0U);
    EXPECT_EQ(monitor.bytes_written(), 16U) << "2 beats x 8 B";
    EXPECT_EQ(monitor.orphan_responses(), 0U);
    EXPECT_EQ(monitor.timeouts(), 0U);
    EXPECT_FALSE(monitor.flagged());
    monitor.finalize();
    EXPECT_EQ(monitor.orphan_requests(), 0U);
    EXPECT_EQ(monitor.combined_sketch().count(), 1U);
}

TEST_F(MonitorFixture, CleanReadRecordsLatencyAndBytes) {
    TxnMonitor monitor{ctx, "mon", port};
    mgr.send_ar(axi::make_ar(5, 0x2000, 2, 3));
    ctx.run(3);
    accept_requests();
    axi::RFlit r0;
    r0.id = 5;
    r0.last = false;
    sub.send_r(r0);
    ctx.step();
    axi::RFlit r1;
    r1.id = 5;
    r1.last = true;
    sub.send_r(r1);
    ctx.run(3);
    while (mgr.has_r()) { mgr.recv_r(); }

    EXPECT_EQ(monitor.ar_count(), 1U);
    EXPECT_EQ(monitor.read_sketch().count(), 1U);
    EXPECT_EQ(monitor.read_sketch().min(), 4U) << "AR at cycle 0, R-last at cycle 4";
    EXPECT_EQ(monitor.bytes_read(), 16U) << "2 beats x 8 B";
    EXPECT_EQ(monitor.orphan_responses(), 0U);
    EXPECT_FALSE(monitor.flagged());
}

TEST_F(MonitorFixture, OrphanResponsesAreCounted) {
    TxnMonitor monitor{ctx, "mon", port};
    axi::BFlit b;
    b.id = 9;
    sub.send_b(b);
    axi::RFlit r;
    r.id = 9;
    r.last = true;
    sub.send_r(r);
    ctx.run(3);
    EXPECT_EQ(monitor.orphan_responses(), 2U);
}

TEST_F(MonitorFixture, TimeoutFlagsOncePerBurstAndOrphansAtFinalize) {
    TxnMonitorConfig cfg;
    cfg.timeout_cycles = 20;
    TxnMonitor monitor{ctx, "mon", port, cfg};
    mgr.send_ar(axi::make_ar(1, 0x1000, 1, 3));
    ctx.run(3);
    EXPECT_EQ(monitor.timeouts(), 0U) << "not yet aged past the deadline";
    ctx.run(40);
    EXPECT_EQ(monitor.timeouts(), 1U);
    ctx.run(100);
    EXPECT_EQ(monitor.timeouts(), 1U) << "a burst times out once, not per check";
    EXPECT_FALSE(monitor.flagged()) << "timeouts are telemetry, not a verdict";
    monitor.finalize();
    EXPECT_EQ(monitor.orphan_requests(), 1U) << "still outstanding at run end";
}

TEST_F(MonitorFixture, WGapFlagsStallingWriteProducer) {
    TxnMonitorConfig cfg;
    cfg.stall_cycles = 8;
    TxnMonitor monitor{ctx, "mon", port, cfg};
    // Open an 8-beat burst, supply a single beat, then go silent while the
    // subordinate takes everything -- the W-stall attack signature. (A beat
    // left in the port has been produced, so it would not be a gap.)
    mgr.send_aw(axi::make_aw(1, 0x1000, 8, 3));
    ctx.step();
    axi::WFlit w;
    w.last = false;
    mgr.send_w(w);
    for (int c = 0; c < 40; ++c) {
        accept_requests();
        ctx.step();
    }

    EXPECT_EQ(monitor.w_gap_events(), 1U);
    EXPECT_TRUE(monitor.flagged());
    EXPECT_EQ(monitor.signals() & kSignalWGap, kSignalWGap);
    EXPECT_GT(monitor.time_to_detect(), 0U);
    ctx.run(100);
    EXPECT_EQ(monitor.w_gap_events(), 1U) << "one event per gap until a beat re-arms";
}

TEST_F(MonitorFixture, BackpressureFlagsHeldRequests) {
    TxnMonitorConfig cfg;
    cfg.stall_cycles = 8;
    cfg.window_cycles = 32;
    cfg.held_threshold = 0.5;
    cfg.bw_threshold = 1e9; // isolate the held signal
    TxnMonitor monitor{ctx, "mon", port, cfg};
    // Never accept: once the manager fills the port's AR link, its requests
    // are valid and not ready every cycle.
    axi::IdT id = 0;
    for (int c = 0; c < 100; ++c) {
        if (mgr.can_send_ar()) { mgr.send_ar(axi::make_ar(++id, 0x1000, 1, 3)); }
        ctx.step();
    }
    EXPECT_GT(monitor.held_cycles(), 32U);
    EXPECT_GE(monitor.stall_events(), 1U) << "held streak crossed stall_cycles";
    EXPECT_TRUE(monitor.flagged());
    EXPECT_EQ(monitor.signals() & kSignalBackpressure, kSignalBackpressure);
}

TEST_F(MonitorFixture, BackpressureIgnoresASingleHeldBurst) {
    // A blocking core whose one read the fabric never accepts is waiting on
    // the fabric, not pushing past it; a second read in demand turns the
    // same stall into backpressure.
    TxnMonitorConfig cfg;
    cfg.window_cycles = 32;
    cfg.held_threshold = 0.5;
    cfg.bw_threshold = 1e9;  // isolate the held signal
    cfg.occ_threshold = 1e9;
    TxnMonitor monitor{ctx, "mon", port, cfg};
    mgr.send_ar(axi::make_ar(1, 0x1000, 1, 3));
    ctx.run(100);
    EXPECT_EQ(monitor.held_cycles(), 0U);
    EXPECT_FALSE(monitor.flagged());
    mgr.send_ar(axi::make_ar(2, 0x2000, 1, 3));
    ctx.run(100);
    EXPECT_EQ(monitor.held_cycles(), 100U) << "every cycle with two reads in demand";
    monitor.finalize();
    EXPECT_EQ(monitor.signals(), kSignalBackpressure);
}

TEST_F(MonitorFixture, BandwidthFlagsSaturatingReader) {
    TxnMonitorConfig cfg;
    cfg.window_cycles = 32;
    cfg.bw_threshold = 4.0; // 8 B/cycle of R traffic is well above this
    cfg.held_threshold = 1.1; // isolate the bandwidth signal
    TxnMonitor monitor{ctx, "mon", port, cfg};
    mgr.send_ar(axi::make_ar(7, 0x1000, 64, 3));
    std::uint32_t beats = 64;
    for (int c = 0; c < 120; ++c) {
        accept_requests();
        if (beats > 0 && sub.can_send_r()) {
            axi::RFlit r;
            r.id = 7;
            r.last = (--beats == 0);
            sub.send_r(r);
        }
        while (mgr.has_r()) { mgr.recv_r(); }
        ctx.step();
    }
    EXPECT_EQ(monitor.bytes_read(), 64U * 8U);
    EXPECT_TRUE(monitor.flagged());
    EXPECT_EQ(monitor.signals() & kSignalBandwidth, kSignalBandwidth);
    EXPECT_EQ(monitor.read_sketch().count(), 1U);
}

TEST_F(MonitorFixture, OccupancyFlagsPipelinedReader) {
    TxnMonitorConfig cfg;
    cfg.window_cycles = 32;
    cfg.occ_threshold = 1.5;
    cfg.held_threshold = 1.1; // isolate the occupancy signal
    cfg.stall_cycles = 1000;
    TxnMonitor monitor{ctx, "mon", port, cfg};
    // Two reads accepted and never answered: in-demand occupancy sits at 2
    // for every following window.
    mgr.send_ar(axi::make_ar(1, 0x1000, 1, 3));
    mgr.send_ar(axi::make_ar(2, 0x2000, 1, 3));
    ctx.step();
    accept_requests();
    ctx.run(100);
    // Windows are evaluated lazily (the idle monitor may be asleep at the
    // boundary); finalize() closes them, dated at the deterministic edges.
    monitor.finalize();
    EXPECT_TRUE(monitor.flagged());
    EXPECT_EQ(monitor.signals(), kSignalOccupancy) << "only the occupancy signal";
    EXPECT_GT(monitor.occupancy_milli(), 1500U);
}

TEST_F(MonitorFixture, OccupancyIgnoresResponseWait) {
    // A manager whose writes are fully produced but starved of B responses is
    // a congestion *victim*: its occupancy must not accumulate while waiting.
    TxnMonitorConfig cfg;
    cfg.window_cycles = 32;
    cfg.occ_threshold = 1.5;
    TxnMonitor monitor{ctx, "mon", port, cfg};
    for (axi::IdT id = 1; id <= 4; ++id) {
        mgr.send_aw(axi::make_aw(id, 0x1000 * id, 1, 3));
        ctx.step();
        axi::WFlit w;
        w.last = true;
        mgr.send_w(w);
        ctx.step();
        accept_requests();
    }
    // Four stores outstanding on the B channel for a long time.
    ctx.run(300);
    monitor.finalize();
    EXPECT_FALSE(monitor.flagged())
        << "waiting on late B responses is not fabric demand";
    EXPECT_LT(monitor.occupancy_milli(), 500U);
    EXPECT_EQ(monitor.orphan_requests(), 4U) << "the stores never completed";
}

TEST_F(MonitorFixture, QuietManagerStaysClean) {
    TxnMonitorConfig cfg;
    cfg.window_cycles = 16;
    TxnMonitor monitor{ctx, "mon", port, cfg};
    ctx.run(200);
    monitor.finalize();
    EXPECT_FALSE(monitor.flagged());
    EXPECT_EQ(monitor.timeouts() + monitor.orphan_requests() +
                  monitor.orphan_responses() + monitor.stall_events() +
                  monitor.w_gap_events() + monitor.held_cycles(),
              0U);
}

} // namespace
} // namespace realm::mon

// --- Scenario-level monitoring -----------------------------------------------

namespace realm::scenario {
namespace {

/// Finds one cell of a registered sweep by label and switches monitors on.
ScenarioConfig monitored_cell(const std::string& sweep_name, const std::string& label) {
    const Sweep sweep = make_sweep(sweep_name);
    for (const SweepPoint& p : sweep.points) {
        if (p.label == label) {
            ScenarioConfig cfg = p.config;
            cfg.monitors.enabled = true;
            return cfg;
        }
    }
    ADD_FAILURE() << "no cell " << label << " in " << sweep_name;
    return sweep.points.at(0).config;
}

/// Every point of `sweep_name`, with monitors on when `monitored`.
std::vector<ScenarioResult> run_sweep(const std::string& sweep_name, bool monitored) {
    Sweep sweep = make_sweep(sweep_name);
    for (SweepPoint& p : sweep.points) { p.config.monitors.enabled = monitored; }
    return ScenarioRunner{RunnerOptions{.threads = 4}}.run(sweep);
}

TEST(MonitoredScenario, MonitorsLeaveEverySimulatedFieldAsItWas) {
    // A monitor taps the port its manager drives and holds nothing back, so
    // a monitored run simulates exactly the unmonitored one: only the
    // telemetry (mon_*, mgr_*) and the kernel's tick counters differ.
    for (const char* sweep : {"mesh-dos-smoke", "ring-dos-smoke", "xbar-dos-smoke"}) {
        const std::vector<ScenarioResult> plain = run_sweep(sweep, false);
        const std::vector<ScenarioResult> monitored = run_sweep(sweep, true);
        ASSERT_EQ(plain.size(), monitored.size());
        for (std::size_t i = 0; i < plain.size(); ++i) {
            SCOPED_TRACE(std::string(sweep) + " " + plain[i].label);
            ScenarioResult telemetry_free = monitored[i];
            ASSERT_TRUE(telemetry_free.mon_enabled);
            test::clear_fields(telemetry_free, [](const ResultField& f) {
                return f.when == FieldWhen::kMonitored;
            });
            EXPECT_TRUE(test::same_result(plain[i], telemetry_free, FieldKind::kKernel));
        }
    }
}

TEST(MonitoredScenario, FullMatricesScoreEveryCellExactly) {
    // The README's coverage claim over the full DoS matrices: every hostile
    // manager flagged, no benign DMA flagged, and the victim never flagged.
    for (const char* sweep : {"mesh-dos-matrix", "xbar-dos-matrix"}) {
        SCOPED_TRACE(sweep);
        std::uint64_t hostile = 0;
        std::uint64_t caught = 0;
        for (const ScenarioResult& r : run_sweep(sweep, true)) {
            SCOPED_TRACE(r.label);
            ASSERT_TRUE(r.mon_enabled);
            ASSERT_FALSE(r.mgr_flagged.empty());
            EXPECT_EQ(r.mgr_flagged[0], 0U) << "victim flagged";
            EXPECT_EQ(r.mon_false_positives, 0U);
            EXPECT_EQ(r.mon_false_negatives, 0U);
            for (const std::uint64_t h : r.mgr_hostile) { hostile += h; }
            caught += r.mon_true_positives;
        }
        EXPECT_EQ(hostile, 156U);
        EXPECT_EQ(caught, hostile);
    }
}

TEST(MonitoredScenario, HogAttackerDetectedVictimClean) {
    const ScenarioConfig cfg = monitored_cell("mesh-dos-smoke", "1atk/hog/none");
    const ScenarioResult res = run_scenario(cfg, "1atk/hog/none");
    ASSERT_TRUE(res.mon_enabled);
    // Manager 0 is the victim core, manager 1 the single hog DMA.
    ASSERT_EQ(res.mgr_p99.size(), 2U);
    ASSERT_EQ(res.mgr_flagged.size(), 2U);
    ASSERT_EQ(res.mgr_hostile.size(), 2U);
    EXPECT_EQ(res.mgr_hostile[0], 0U);
    EXPECT_EQ(res.mgr_hostile[1], 1U);
    EXPECT_EQ(res.mgr_flagged[1], 1U) << "hog must be flagged";
    EXPECT_EQ(res.mgr_flagged[0], 0U) << "victim must stay clean";
    EXPECT_EQ(res.mon_true_positives, 1U);
    EXPECT_EQ(res.mon_false_positives, 0U);
    EXPECT_EQ(res.mon_false_negatives, 0U);
    EXPECT_GT(res.mon_first_detect, 0U);
    EXPECT_EQ(res.mgr_detect[1], res.mon_first_detect);
    // Percentiles are ordered and populated for every manager.
    for (std::size_t m = 0; m < res.mgr_p99.size(); ++m) {
        EXPECT_LE(res.mgr_p50[m], res.mgr_p99[m]) << "manager " << m;
        EXPECT_LE(res.mgr_p99[m], res.mgr_p999[m]) << "manager " << m;
    }
    EXPECT_LE(res.mon_lat_p50, res.mon_lat_p99);
    EXPECT_LE(res.mon_lat_p99, res.mon_lat_p999);
}

TEST(MonitoredScenario, WStallAttackerFlaggedViaWGap) {
    const ScenarioConfig cfg = monitored_cell("mesh-dos-smoke", "1atk/wstall/budget");
    const ScenarioResult res = run_scenario(cfg, "1atk/wstall/budget");
    ASSERT_TRUE(res.mon_enabled);
    ASSERT_EQ(res.mgr_signals.size(), 2U);
    EXPECT_EQ(res.mon_true_positives, 1U);
    EXPECT_EQ(res.mon_false_positives, 0U);
    EXPECT_EQ(res.mgr_signals[1] & mon::kSignalWGap, mon::kSignalWGap)
        << "the W-stall attack is caught by the W-production-gap signal";
    EXPECT_GT(res.mon_wgap_events, 0U);
}

TEST(MonitoredScenario, NoAttackCellsProduceZeroFalsePositives) {
    for (const char* sweep : {"mesh-dos-smoke", "ring-dos-smoke"}) {
        for (const char* label : {"0atk/hog/none", "0atk/hog/budget"}) {
            SCOPED_TRACE(std::string(sweep) + " " + label);
            const ScenarioResult res = run_scenario(monitored_cell(sweep, label), label);
            ASSERT_TRUE(res.mon_enabled);
            ASSERT_EQ(res.mgr_flagged.size(), 1U) << "victim only";
            EXPECT_EQ(res.mon_false_positives, 0U);
            EXPECT_EQ(res.mon_true_positives, 0U);
            EXPECT_EQ(res.mgr_flagged[0], 0U);
            EXPECT_EQ(res.mon_first_detect, 0U);
        }
    }
}

TEST(MonitoredScenario, MeshSmokeScoresEveryCellExactly) {
    // Every cell of the monitored mesh smoke: each attack cell catches every
    // hostile manager and misses none, the no-attack baselines stay clean,
    // and the victim is never flagged.
    Sweep sweep = make_sweep("mesh-dos-smoke");
    for (SweepPoint& p : sweep.points) { p.config.monitors.enabled = true; }
    const std::vector<ScenarioResult> results =
        ScenarioRunner{RunnerOptions{.threads = 4}}.run(sweep);
    ASSERT_EQ(results.size(), 10U);
    for (const ScenarioResult& r : results) {
        SCOPED_TRACE(r.label);
        ASSERT_TRUE(r.mon_enabled);
        const std::size_t managers = r.mgr_p99.size();
        ASSERT_GT(managers, 0U);
        for (const std::vector<std::uint64_t>* column :
             {&r.mgr_p50, &r.mgr_p999, &r.mgr_flagged, &r.mgr_signals, &r.mgr_hostile,
              &r.mgr_detect, &r.mgr_occ_milli}) {
            EXPECT_EQ(column->size(), managers);
        }
        std::uint64_t hostile = 0;
        for (const std::uint64_t h : r.mgr_hostile) { hostile += h; }
        if (r.label.rfind("0atk", 0) == 0) {
            EXPECT_EQ(hostile, 0U);
            EXPECT_EQ(r.mon_false_positives, 0U);
        } else {
            EXPECT_GT(hostile, 0U);
            EXPECT_EQ(r.mon_true_positives, hostile);
            EXPECT_EQ(r.mon_false_negatives, 0U);
            EXPECT_GT(r.mon_first_detect, 0U);
        }
        EXPECT_EQ(r.mgr_flagged[0], 0U) << "victim flagged";
    }
}

TEST(MonitoredScenario, RandomMixVictimCleanGreedyDmaScoredHonestly) {
    Sweep sweep = make_sweep("random-mix");
    ScenarioConfig cfg = sweep.points.at(0).config;
    cfg.victim.random.num_ops = 500; // keep the test quick
    cfg.monitors.enabled = true;
    const ScenarioResult res = run_scenario(cfg, sweep.points.at(0).label);
    ASSERT_TRUE(res.mon_enabled);
    ASSERT_EQ(res.mgr_flagged.size(), 2U);
    EXPECT_EQ(res.mgr_flagged[0], 0U) << "the random-access victim must stay clean";
    // The budgeted DMA is configured benign but pushes 16 KiB through a
    // 4 B/cycle contract as fast as the regulator allows: at the boundary it
    // is indistinguishable from an overdrafter (sustained backpressure, full
    // pipeline), so the detector flags it and the score records an honest
    // false positive against the benign ground truth.
    EXPECT_EQ(res.mgr_flagged[1], 1U);
    EXPECT_EQ(res.mgr_signals[1] & mon::kSignalBackpressure, mon::kSignalBackpressure);
    EXPECT_EQ(res.mon_false_positives, 1U);
    EXPECT_EQ(res.mon_true_positives + res.mon_false_negatives, 0U)
        << "random-mix configures no hostile manager";
}

TEST(MonitoredScenario, ShardCountDoesNotChangeMonitorResults) {
    ScenarioConfig base = monitored_cell("mesh-dos-smoke", "2atk/hog/budget");
    std::vector<ScenarioResult> runs;
    for (const unsigned shards : {1U, 2U, 4U}) {
        ScenarioConfig cfg = base;
        cfg.shards = shards;
        cfg.shard_workers = shards > 1 ? 2 : 0;
        runs.push_back(run_scenario(cfg, "2atk/hog/budget"));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        SCOPED_TRACE("shards run " + std::to_string(i));
        EXPECT_TRUE(test::same_result(runs[0], runs[i], scenario::FieldKind::kKernel));
    }
}

TEST(MonitoredScenario, SketchBacksLoadLatencyP99) {
    // Solo victim on the smoke mesh: load_lat_p99 now comes from the core's
    // QuantileSketch and must sit inside the exact [min, max] envelope within
    // the sketch's documented relative error bound.
    Sweep sweep = make_sweep("mesh-dos-smoke");
    const ScenarioConfig cfg = sweep.points.back().config; // 0atk cell
    const ScenarioResult res = run_scenario(cfg, "solo");
    ASSERT_GT(res.ops, 0U);
    EXPECT_GE(res.load_lat_p99, res.load_lat_min);
    EXPECT_LE(static_cast<double>(res.load_lat_p99),
              static_cast<double>(res.load_lat_max) *
                  (1.0 + mon::QuantileSketch::kRelativeErrorBound));
    if (res.load_lat_min == res.load_lat_max) {
        EXPECT_EQ(res.load_lat_p99, res.load_lat_max) << "degenerate distribution is exact";
    }
}

TEST(MonitoredScenario, MonitorsOffLeavesResultEmpty) {
    Sweep sweep = make_sweep("mesh-dos-smoke");
    const ScenarioResult res = run_scenario(sweep.points.at(0).config, "off");
    EXPECT_FALSE(res.mon_enabled);
    EXPECT_TRUE(res.mgr_p99.empty());
    EXPECT_EQ(res.mon_true_positives + res.mon_false_positives, 0U);
}

} // namespace
} // namespace realm::scenario
