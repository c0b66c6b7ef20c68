/// Unit tests for the REALM sub-blocks: granular burst splitter, write
/// buffer, M&R unit, isolation block.
#include "realm/isolation.hpp"
#include "realm/mr_unit.hpp"
#include "realm/splitter.hpp"
#include "realm/write_buffer.hpp"

#include "axi/builder.hpp"

#include <gtest/gtest.h>

namespace realm::rt {
namespace {

// --- GranularBurstSplitter ---------------------------------------------------

TEST(Splitter, PassesShortBurstsIntact) {
    GranularBurstSplitter sp{16, 4};
    sp.accept_read(axi::make_ar(1, 0x1000, 8, 3));
    ASSERT_TRUE(sp.has_child_ar());
    const axi::ArFlit child = sp.pop_child_ar();
    EXPECT_EQ(child.len, 7);
    EXPECT_FALSE(sp.has_child_ar());
    EXPECT_EQ(sp.bursts_passed_intact(), 1U);
}

TEST(Splitter, FragmentsLongRead) {
    GranularBurstSplitter sp{16, 4};
    sp.accept_read(axi::make_ar(1, 0x1000, 64, 3));
    int children = 0;
    axi::Addr expected_addr = 0x1000;
    while (sp.has_child_ar()) {
        const axi::ArFlit child = sp.pop_child_ar();
        EXPECT_EQ(child.addr, expected_addr);
        EXPECT_EQ(child.len, 15);
        expected_addr += 16 * 8;
        ++children;
    }
    EXPECT_EQ(children, 4);
    EXPECT_EQ(sp.fragments_created(), 4U);
}

TEST(Splitter, GatesChildRLastUntilParentEnd) {
    GranularBurstSplitter sp{4, 4};
    sp.accept_read(axi::make_ar(9, 0x0, 8, 3)); // 2 children of 4 beats
    while (sp.has_child_ar()) { (void)sp.pop_child_ar(); }
    int parent_lasts = 0;
    for (int child = 0; child < 2; ++child) {
        for (int beat = 0; beat < 4; ++beat) {
            axi::RFlit r;
            r.id = 9;
            r.last = beat == 3; // child-level last
            const auto out = sp.process_r(r);
            parent_lasts += out.flit.last ? 1 : 0;
            EXPECT_EQ(out.parent_completed, child == 1 && beat == 3);
        }
    }
    EXPECT_EQ(parent_lasts, 1) << "exactly one parent RLAST";
    EXPECT_EQ(sp.reads_in_flight(), 0U);
}

TEST(Splitter, CoalescesWriteResponses) {
    GranularBurstSplitter sp{8, 4};
    const auto children = sp.accept_write(axi::make_aw(3, 0x0, 24, 3)); // 3 children
    ASSERT_EQ(children.size(), 3U);
    axi::BFlit child_b;
    child_b.id = 3;
    child_b.resp = axi::Resp::kOkay;
    EXPECT_FALSE(sp.process_b(child_b).has_value());
    child_b.resp = axi::Resp::kSlvErr;
    EXPECT_FALSE(sp.process_b(child_b).has_value());
    child_b.resp = axi::Resp::kOkay;
    const auto parent = sp.process_b(child_b);
    ASSERT_TRUE(parent.has_value());
    EXPECT_EQ(parent->id, 3U);
    EXPECT_EQ(parent->resp, axi::Resp::kSlvErr) << "worst child response wins";
    EXPECT_EQ(sp.writes_in_flight(), 0U);
}

TEST(Splitter, InterleavedIdsTrackedIndependently) {
    GranularBurstSplitter sp{2, 8};
    sp.accept_read(axi::make_ar(1, 0x0, 4, 3));   // 2 children
    sp.accept_read(axi::make_ar(2, 0x100, 2, 3)); // 1 child
    while (sp.has_child_ar()) { (void)sp.pop_child_ar(); }
    // Interleave R beats of the two parents (legal across IDs).
    axi::RFlit r1;
    r1.id = 1;
    axi::RFlit r2;
    r2.id = 2;
    r1.last = false;
    (void)sp.process_r(r1);
    r2.last = false;
    (void)sp.process_r(r2);
    r2.last = true;
    const auto done2 = sp.process_r(r2);
    EXPECT_TRUE(done2.parent_completed);
    r1.last = true;
    (void)sp.process_r(r1);
    r1.last = false;
    (void)sp.process_r(r1);
    r1.last = true;
    const auto done1 = sp.process_r(r1);
    EXPECT_TRUE(done1.parent_completed);
}

TEST(Splitter, NonModifiableShortBurstNotSplit) {
    GranularBurstSplitter sp{1, 4};
    axi::ArFlit ar = axi::make_ar(1, 0x0, 16, 3);
    ar.cache = 0x0; // non-modifiable
    sp.accept_read(ar);
    const axi::ArFlit child = sp.pop_child_ar();
    EXPECT_EQ(child.len, 15) << "non-modifiable <= 16 beats must pass intact";
    EXPECT_FALSE(sp.has_child_ar());
}

TEST(Splitter, ReconfigRequiresDrained) {
    GranularBurstSplitter sp{16, 4};
    sp.accept_read(axi::make_ar(1, 0x0, 32, 3));
    EXPECT_THROW(sp.set_granularity(4), sim::ContractViolation);
}

TEST(Splitter, CapacityLimitsParents) {
    GranularBurstSplitter sp{16, 2};
    sp.accept_read(axi::make_ar(1, 0x0, 4, 3));
    sp.accept_read(axi::make_ar(1, 0x100, 4, 3));
    EXPECT_FALSE(sp.can_accept_read());
    EXPECT_THROW(sp.accept_read(axi::make_ar(1, 0x200, 4, 3)), sim::ContractViolation);
}

/// Parameterized sweep: all (parent length, granularity) combinations keep
/// the exactly-one-parent-RLAST invariant.
class SplitterSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplitterSweep, ParentCompletionInvariant) {
    const auto [beats, gran] = GetParam();
    GranularBurstSplitter sp{static_cast<std::uint32_t>(gran), 4};
    sp.accept_read(axi::make_ar(5, 0x2000, static_cast<std::uint32_t>(beats), 3));
    std::vector<std::uint32_t> child_lens;
    while (sp.has_child_ar()) { child_lens.push_back(sp.pop_child_ar().beats()); }
    std::uint32_t total = 0;
    for (const auto l : child_lens) { total += l; }
    EXPECT_EQ(total, static_cast<std::uint32_t>(beats));

    int parent_lasts = 0;
    for (const std::uint32_t len : child_lens) {
        for (std::uint32_t b = 0; b < len; ++b) {
            axi::RFlit r;
            r.id = 5;
            r.last = b + 1 == len;
            parent_lasts += sp.process_r(r).flit.last ? 1 : 0;
        }
    }
    EXPECT_EQ(parent_lasts, 1);
    EXPECT_EQ(sp.reads_in_flight(), 0U);
}

INSTANTIATE_TEST_SUITE_P(BeatsGranularity, SplitterSweep,
                         ::testing::Combine(::testing::Values(1, 2, 5, 16, 100, 256),
                                            ::testing::Values(1, 3, 8, 64, 256)));

// --- WriteBuffer --------------------------------------------------------------

axi::WFlit beat(bool last, std::uint8_t tag = 0) {
    axi::WFlit w;
    w.last = last;
    w.data.bytes[0] = tag;
    return w;
}

TEST(WriteBuffer, HoldsAwUntilDataComplete) {
    WriteBuffer wb{16};
    const axi::AwFlit aw = axi::make_aw(1, 0x0, 4, 3);
    const std::vector<axi::BurstDescriptor> children{aw.descriptor()};
    wb.queue_children(aw, children);
    EXPECT_FALSE(wb.has_aw_to_send()) << "no data yet -> AW must be held";
    wb.accept_beat(beat(false, 1));
    wb.accept_beat(beat(false, 2));
    wb.accept_beat(beat(false, 3));
    EXPECT_FALSE(wb.has_aw_to_send());
    wb.accept_beat(beat(true, 4));
    ASSERT_TRUE(wb.has_aw_to_send());
    (void)wb.pop_aw();
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(wb.has_w_to_send());
        const axi::WFlit w = wb.pop_w();
        EXPECT_EQ(w.data.bytes[0], i + 1);
        EXPECT_EQ(w.last, i == 3);
    }
    EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, RegatesChildLast) {
    // Parent of 4 beats fragmented into 2 children of 2: parent WLAST on
    // beat 3 only; children get their own last flags.
    WriteBuffer wb{16};
    axi::AwFlit aw = axi::make_aw(1, 0x0, 4, 3);
    const auto children = axi::fragment_burst(aw.descriptor(), 2);
    wb.queue_children(aw, children);
    wb.accept_beat(beat(false));
    wb.accept_beat(beat(false)); // child 0 complete (parent not last here)
    wb.accept_beat(beat(false));
    wb.accept_beat(beat(true)); // parent last == child 1 last
    int lasts = 0;
    while (wb.has_aw_to_send() || wb.has_w_to_send()) {
        if (wb.has_aw_to_send()) { (void)wb.pop_aw(); }
        if (wb.has_w_to_send()) { lasts += wb.pop_w().last ? 1 : 0; }
    }
    EXPECT_EQ(lasts, 2) << "each child carries its own WLAST";
}

TEST(WriteBuffer, BackpressuresWhenFull) {
    WriteBuffer wb{2};
    const axi::AwFlit aw = axi::make_aw(1, 0x0, 2, 3);
    // Two bursts queued; capacity 2 beats.
    wb.queue_children(aw, std::vector<axi::BurstDescriptor>{aw.descriptor()});
    wb.queue_children(aw, std::vector<axi::BurstDescriptor>{aw.descriptor()});
    ASSERT_TRUE(wb.can_accept_beat());
    wb.accept_beat(beat(false));
    wb.accept_beat(beat(true)); // first burst complete, fills the buffer
    EXPECT_FALSE(wb.can_accept_beat()) << "capacity reached";
    (void)wb.pop_aw();
    (void)wb.pop_w();
    EXPECT_TRUE(wb.can_accept_beat()) << "draining frees space";
}

TEST(WriteBuffer, CutThroughForOversizedBurst) {
    WriteBuffer wb{4};
    const axi::AwFlit aw = axi::make_aw(1, 0x0, 8, 3); // burst > depth
    wb.queue_children(aw, std::vector<axi::BurstDescriptor>{aw.descriptor()});
    EXPECT_EQ(wb.cut_through_bursts(), 1U);
    EXPECT_TRUE(wb.has_aw_to_send()) << "cut-through forwards the AW immediately";
    (void)wb.pop_aw();
    wb.accept_beat(beat(false));
    EXPECT_TRUE(wb.has_w_to_send()) << "data streams as it arrives";
}

TEST(WriteBuffer, DisabledActsAsCutThrough) {
    WriteBuffer wb{16, /*enabled=*/false};
    const axi::AwFlit aw = axi::make_aw(1, 0x0, 2, 3);
    wb.queue_children(aw, std::vector<axi::BurstDescriptor>{aw.descriptor()});
    EXPECT_TRUE(wb.has_aw_to_send());
    EXPECT_EQ(wb.cut_through_bursts(), 1U);
}

TEST(WriteBuffer, TwoAwsPipelined) {
    // Entry 1's AW may be emitted while entry 0 still streams data (the
    // paper's two-AW buffer).
    WriteBuffer wb{16};
    const axi::AwFlit aw = axi::make_aw(1, 0x0, 2, 3);
    wb.queue_children(aw, std::vector<axi::BurstDescriptor>{aw.descriptor()});
    wb.queue_children(aw, std::vector<axi::BurstDescriptor>{aw.descriptor()});
    wb.accept_beat(beat(false));
    wb.accept_beat(beat(true));
    wb.accept_beat(beat(false));
    wb.accept_beat(beat(true));
    (void)wb.pop_aw(); // entry 0 AW
    ASSERT_TRUE(wb.has_aw_to_send()) << "second AW available while first streams";
    (void)wb.pop_aw();
    int w_beats = 0;
    while (wb.has_w_to_send()) {
        (void)wb.pop_w();
        ++w_beats;
    }
    EXPECT_EQ(w_beats, 4);
}

// --- MonitorRegulationUnit ----------------------------------------------------

RegionConfig make_region(axi::Addr start, axi::Addr end, std::uint64_t budget,
                         sim::Cycle period) {
    RegionConfig r;
    r.start = start;
    r.end = end;
    r.budget_bytes = budget;
    r.period_cycles = period;
    return r;
}

TEST(MrUnit, ChargesAndDepletes) {
    MonitorRegulationUnit mr{2};
    mr.configure_region(0, make_region(0x0, 0x10000, 256, 1000), 0);
    EXPECT_TRUE(mr.admission_open());
    mr.charge(0x100, 200);
    EXPECT_TRUE(mr.admission_open());
    mr.charge(0x200, 100); // credit now -44
    EXPECT_FALSE(mr.admission_open());
    EXPECT_TRUE(mr.budget_exhausted());
    EXPECT_EQ(mr.region(0).depletion_events, 1U);
}

TEST(MrUnit, PeriodReplenishesWithOverdraftRepayment) {
    MonitorRegulationUnit mr{1};
    mr.configure_region(0, make_region(0x0, 0x10000, 100, 50), 0);
    mr.charge(0x0, 160); // credit -60
    EXPECT_TRUE(mr.budget_exhausted());
    mr.tick(50); // one period: credit -60+100 = 40 (overdraft repaid)
    EXPECT_TRUE(mr.admission_open());
    EXPECT_EQ(mr.region(0).credit, 40);
    mr.tick(100); // credit min(100, 40+100) = 100: no banking beyond budget
    EXPECT_EQ(mr.region(0).credit, 100);
}

TEST(MrUnit, RegionDecodeSelectsByAddress) {
    MonitorRegulationUnit mr{2};
    mr.configure_region(0, make_region(0x0000, 0x1000, 100, 100), 0);
    mr.configure_region(1, make_region(0x1000, 0x2000, 100, 100), 0);
    EXPECT_EQ(mr.region_of(0x0800), 0U);
    EXPECT_EQ(mr.region_of(0x1800), 1U);
    EXPECT_FALSE(mr.region_of(0x5000).has_value());
    mr.charge(0x1800, 64);
    EXPECT_EQ(mr.region(1).bytes_total, 64U);
    EXPECT_EQ(mr.region(0).bytes_total, 0U);
}

TEST(MrUnit, UnmatchedTrafficUnregulated) {
    MonitorRegulationUnit mr{1};
    mr.configure_region(0, make_region(0x0, 0x1000, 10, 100), 0);
    mr.charge(0x9000, 1000000); // outside all regions
    EXPECT_TRUE(mr.admission_open());
    EXPECT_EQ(mr.unmatched_txns(), 1U);
}

TEST(MrUnit, OnlyDepletedRegionIsolates) {
    MonitorRegulationUnit mr{2};
    mr.configure_region(0, make_region(0x0, 0x1000, 1000, 100), 0);
    mr.configure_region(1, make_region(0x1000, 0x2000, 100, 100), 0);
    mr.charge(0x1000, 150);
    EXPECT_TRUE(mr.budget_exhausted()) << "one depleted region isolates the manager";
}

TEST(MrUnit, ThrottleScalesOutstandingWithCredit) {
    MonitorRegulationUnit mr{1};
    mr.configure_region(0, make_region(0x0, 0x10000, 1000, 1000), 0);
    mr.set_throttle_enabled(true);
    EXPECT_EQ(mr.allowed_outstanding(8), 8U);
    mr.charge(0x0, 500);
    EXPECT_EQ(mr.allowed_outstanding(8), 4U);
    mr.charge(0x0, 400); // 10 % left
    EXPECT_EQ(mr.allowed_outstanding(8), 1U);
    mr.set_throttle_enabled(false);
    EXPECT_EQ(mr.allowed_outstanding(8), 8U);
}

TEST(MrUnit, BandwidthReadoutTracksPeriod) {
    MonitorRegulationUnit mr{1};
    mr.configure_region(0, make_region(0x0, 0x10000, 4096, 1000), 0);
    mr.charge(0x0, 512);
    EXPECT_DOUBLE_EQ(mr.region(0).current_bandwidth(64), 8.0);
    mr.tick(1000);
    EXPECT_EQ(mr.region(0).bytes_this_period, 0U) << "period boundary clears the window";
    EXPECT_EQ(mr.region(0).bytes_total, 512U) << "lifetime counter survives";
}

TEST(MrUnit, LatencyStatsPerRegion) {
    MonitorRegulationUnit mr{2};
    mr.configure_region(0, make_region(0x0, 0x1000, 0, 0), 0);
    mr.record_completion(0U, 12, false);
    mr.record_completion(0U, 20, false);
    mr.record_completion(0U, 40, true);
    EXPECT_EQ(mr.region(0).read_latency.count(), 2U);
    EXPECT_EQ(mr.region(0).read_latency.max(), 20U);
    EXPECT_EQ(mr.region(0).write_latency.max(), 40U);
}

// --- IsolationBlock -----------------------------------------------------------

TEST(Isolation, TracksOutstandingAndCauses) {
    IsolationBlock iso;
    EXPECT_TRUE(iso.may_accept());
    iso.on_read_accepted();
    iso.on_write_accepted();
    iso.raise(IsolationCause::kUser);
    EXPECT_FALSE(iso.may_accept());
    EXPECT_FALSE(iso.fully_isolated()) << "outstanding still draining";
    iso.on_read_completed();
    iso.on_write_completed();
    EXPECT_TRUE(iso.fully_isolated());
    iso.clear(IsolationCause::kUser);
    EXPECT_TRUE(iso.may_accept());
}

TEST(Isolation, MultipleCausesIndependent) {
    IsolationBlock iso;
    iso.raise(IsolationCause::kBudget);
    iso.raise(IsolationCause::kUser);
    iso.clear(IsolationCause::kBudget);
    EXPECT_FALSE(iso.may_accept()) << "user cause still active";
    EXPECT_TRUE(iso.cause_active(IsolationCause::kUser));
    EXPECT_FALSE(iso.cause_active(IsolationCause::kBudget));
}

} // namespace
} // namespace realm::rt
