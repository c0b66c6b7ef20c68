/// Unit tests for the interconnect: arbiter, mux (W reservation + fairness),
/// and the full crossbar (routing, same-ID ordering, burst arbitration).
#include "axi/builder.hpp"
#include "axi/channel.hpp"
#include "ic/addr_map.hpp"
#include "ic/arb.hpp"
#include "ic/mux.hpp"
#include "ic/xbar.hpp"
#include "mem/axi_mem_slave.hpp"
#include "mem/error_slave.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace realm::ic {
namespace {

using test::collect_b;
using test::collect_read_burst;
using test::push_write_burst;
using test::step_until;

/// The first 64-bit word of a read beat's data.
std::uint64_t first_word(const axi::RFlit& r) {
    std::uint64_t v = 0;
    std::memcpy(&v, r.data.bytes.data(), sizeof v);
    return v;
}

TEST(AddrMap, FirstMatchDecode) {
    AddrMap map;
    map.add(0x1000, 0x1000, 0, "a").add(0x2000, 0x1000, 1, "b");
    EXPECT_EQ(map.decode(0x1000), 0U);
    EXPECT_EQ(map.decode(0x1FFF), 0U);
    EXPECT_EQ(map.decode(0x2000), 1U);
    EXPECT_FALSE(map.decode(0x3000).has_value());
}

TEST(AddrMap, RejectsOverlap) {
    AddrMap map;
    map.add(0x1000, 0x1000, 0);
    EXPECT_THROW(map.add(0x1800, 0x1000, 1), sim::ContractViolation);
    EXPECT_NO_THROW(map.add(0x2000, 0x1000, 1)); // adjacent is fine
}

TEST(RoundRobinArbiter, RotatesFairly) {
    RoundRobinArbiter arb{3};
    std::array<int, 3> grants{};
    for (int i = 0; i < 30; ++i) {
        const int w = arb.pick([](std::uint32_t) { return true; });
        ASSERT_GE(w, 0);
        arb.commit(static_cast<std::uint32_t>(w));
        ++grants[static_cast<std::size_t>(w)];
    }
    EXPECT_EQ(grants[0], 10);
    EXPECT_EQ(grants[1], 10);
    EXPECT_EQ(grants[2], 10);
}

TEST(RoundRobinArbiter, SkipsIdleRequesters) {
    RoundRobinArbiter arb{4};
    const int w = arb.pick([](std::uint32_t i) { return i == 2; });
    EXPECT_EQ(w, 2);
    EXPECT_EQ(arb.pick([](std::uint32_t) { return false; }), -1);
}

class MuxFixture : public ::testing::Test {
protected:
    MuxFixture() {
        mgr_chs = {&m0, &m1};
        mux = std::make_unique<AxiMux>(ctx, "mux", mgr_chs, down);
        slave = std::make_unique<mem::AxiMemSlave>(
            ctx, "mem", down, std::make_unique<mem::SramBackend>(1, 1),
            mem::AxiMemSlaveConfig{8, 8, 0});
    }

    sim::SimContext ctx;
    axi::AxiChannel m0{ctx, "m0"};
    axi::AxiChannel m1{ctx, "m1"};
    axi::AxiChannel down{ctx, "down"};
    std::vector<axi::AxiChannel*> mgr_chs;
    std::unique_ptr<AxiMux> mux;
    std::unique_ptr<mem::AxiMemSlave> slave;
};

TEST_F(MuxFixture, RoutesResponsesByRemappedId) {
    axi::ManagerView v0{m0};
    axi::ManagerView v1{m1};
    v0.send_ar(axi::make_ar(3, 0x0, 1, 3));
    v1.send_ar(axi::make_ar(3, 0x100, 1, 3));
    // Each response reaches its own manager, with the ID un-remapped.
    EXPECT_EQ(collect_read_burst(ctx, m0, 1).id, 3U);
    EXPECT_EQ(collect_read_burst(ctx, m1, 1).id, 3U);
}

TEST_F(MuxFixture, WChannelReservedByGrantedManager) {
    // m0 wins AW arbitration but withholds its data; m1's write must not
    // make progress (the DoS vector the write buffer closes).
    axi::ManagerView v0{m0};
    v0.send_aw(axi::make_aw(1, 0x0, 4, 3));
    ctx.run(3);
    push_write_burst(ctx, m1, 2, 0x100, 1, 8);
    ctx.run(20);
    EXPECT_FALSE(axi::ManagerView{m1}.has_b())
        << "m1's write must be stuck behind m0's reserved W channel";
    EXPECT_GT(mux->w_stall_cycles(), 10U);

    // m0 finally delivers; both writes then complete in order.
    axi::WFlit w;
    for (int i = 0; i < 4; ++i) {
        step_until(ctx, [&] { return v0.can_send_w(); });
        w.last = i == 3;
        v0.send_w(w);
    }
    (void)collect_b(ctx, m0);
    (void)collect_b(ctx, m1);
}

TEST_F(MuxFixture, FairReadArbitrationUnderLoad) {
    // Both managers continuously issue single-beat reads; grants must split
    // evenly under round-robin.
    axi::ManagerView v0{m0};
    axi::ManagerView v1{m1};
    int recv0 = 0;
    int recv1 = 0;
    for (int cycle = 0; cycle < 400; ++cycle) {
        if (v0.can_send_ar()) { v0.send_ar(axi::make_ar(0, 0x0, 1, 3)); }
        if (v1.can_send_ar()) { v1.send_ar(axi::make_ar(0, 0x80, 1, 3)); }
        if (v0.has_r()) {
            (void)v0.recv_r();
            ++recv0;
        }
        if (v1.has_r()) {
            (void)v1.recv_r();
            ++recv1;
        }
        ctx.step();
    }
    EXPECT_GT(recv0, 100);
    EXPECT_GT(recv1, 100);
    EXPECT_NEAR(recv0, recv1, 4);
}

class XbarFixture : public ::testing::Test {
protected:
    XbarFixture() {
        AddrMap map;
        map.add(0x0000, 0x1000, 0, "s0").add(0x1000, 0x1000, 1, "s1");
        XbarConfig xcfg;
        xcfg.default_port = 2;
        xbar = std::make_unique<AxiXbar>(
            ctx, "xbar", std::vector<axi::AxiChannel*>{&m0, &m1},
            std::vector<axi::AxiChannel*>{&s0, &s1, &err}, map, xcfg);
        slave0 = std::make_unique<mem::AxiMemSlave>(
            ctx, "mem0", s0, std::make_unique<mem::SramBackend>(1, 1),
            mem::AxiMemSlaveConfig{8, 8, 0});
        slave1 = std::make_unique<mem::AxiMemSlave>(
            ctx, "mem1", s1, std::make_unique<mem::SramBackend>(1, 1),
            mem::AxiMemSlaveConfig{8, 8, 0x1000});
        error = std::make_unique<mem::ErrorSlave>(ctx, "err", err);
    }

    sim::SimContext ctx;
    axi::AxiChannel m0{ctx, "m0"};
    axi::AxiChannel m1{ctx, "m1"};
    axi::AxiChannel s0{ctx, "s0"};
    axi::AxiChannel s1{ctx, "s1"};
    axi::AxiChannel err{ctx, "err"};
    std::unique_ptr<AxiXbar> xbar;
    std::unique_ptr<mem::AxiMemSlave> slave0;
    std::unique_ptr<mem::AxiMemSlave> slave1;
    std::unique_ptr<mem::ErrorSlave> error;
};

TEST_F(XbarFixture, ConcurrentDisjointTraffic) {
    // m0 -> s0 and m1 -> s1 must not interfere.
    push_write_burst(ctx, m0, 1, 0x0000, 2, 8, 0x10);
    push_write_burst(ctx, m1, 1, 0x1000, 2, 8, 0x20);
    (void)collect_b(ctx, m0);
    (void)collect_b(ctx, m1);
    EXPECT_EQ(static_cast<mem::SramBackend&>(slave0->backend()).store().read_u8(0), 0x10);
    EXPECT_EQ(static_cast<mem::SramBackend&>(slave1->backend()).store().read_u8(0), 0x20);
}

TEST_F(XbarFixture, ReadDataRoutedToIssuer) {
    static_cast<mem::SramBackend&>(slave0->backend()).store().write_u64(0x20, 111);
    static_cast<mem::SramBackend&>(slave1->backend()).store().write_u64(0x20, 222);
    axi::ManagerView v0{m0};
    axi::ManagerView v1{m1};
    v0.send_ar(axi::make_ar(4, 0x0020, 1, 3));
    v1.send_ar(axi::make_ar(4, 0x1020, 1, 3));
    const axi::RFlit r0 = collect_read_burst(ctx, m0, 1);
    const axi::RFlit r1 = collect_read_burst(ctx, m1, 1);
    EXPECT_EQ(first_word(r0), 111U);
    EXPECT_EQ(first_word(r1), 222U);
    EXPECT_EQ(r0.id, 4U);
    EXPECT_EQ(r1.id, 4U);
}

TEST_F(XbarFixture, UnmappedUsesDefaultPort) {
    axi::ManagerView v0{m0};
    v0.send_ar(axi::make_ar(1, 0x8000, 1, 3));
    const axi::RFlit r = collect_read_burst(ctx, m0, 1);
    EXPECT_EQ(r.resp, axi::Resp::kDecErr);
    EXPECT_EQ(xbar->decode_errors(), 1U);
}

TEST_F(XbarFixture, BurstGranularArbitrationDelaysCompetitor) {
    // m0 issues a 64-beat read; m1's single-beat read to the same
    // subordinate must wait for the whole burst (the paper's problem).
    axi::ManagerView v0{m0};
    axi::ManagerView v1{m1};
    v0.send_ar(axi::make_ar(1, 0x0, 64, 3));
    ctx.run(4); // let the burst win arbitration and start
    const sim::Cycle t0 = ctx.now();
    v1.send_ar(axi::make_ar(1, 0x80, 1, 3));
    // Keep draining m0's beats (else backpressure stalls the stream) while
    // waiting for m1's single beat.
    bool m1_served = false;
    for (int i = 0; i < 2000 && !m1_served; ++i) {
        if (v0.has_r()) { (void)v0.recv_r(); }
        if (v1.has_r()) {
            (void)v1.recv_r();
            m1_served = true;
        }
        ctx.step();
    }
    ASSERT_TRUE(m1_served);
    EXPECT_GT(ctx.now() - t0, 50U)
        << "single-beat read must wait out the in-flight 64-beat burst";
}

TEST_F(XbarFixture, WriteReservationBlocksOtherWriters) {
    // m0 granted first but silent; m1's write to the same subordinate stalls.
    axi::ManagerView v0{m0};
    v0.send_aw(axi::make_aw(1, 0x0, 4, 3));
    ctx.run(3);
    push_write_burst(ctx, m1, 1, 0x40, 1, 8);
    ctx.run(30);
    EXPECT_FALSE(axi::ManagerView{m1}.has_b());
    EXPECT_GT(xbar->w_stall_cycles(0), 10U);
    // Deliver m0's data; both complete.
    for (int i = 0; i < 4; ++i) {
        step_until(ctx, [&] { return v0.can_send_w(); });
        axi::WFlit w;
        w.last = i == 3;
        v0.send_w(w);
    }
    (void)collect_b(ctx, m0);
    (void)collect_b(ctx, m1);
}

TEST_F(XbarFixture, GrantCountsBalanceUnderSymmetricLoad) {
    // Single-beat reads: one response per grant.
    axi::ManagerView v0{m0};
    axi::ManagerView v1{m1};
    int g0 = 0;
    int g1 = 0;
    for (int cycle = 0; cycle < 300; ++cycle) {
        if (v0.can_send_ar()) { v0.send_ar(axi::make_ar(0, 0x0, 1, 3)); }
        if (v1.can_send_ar()) { v1.send_ar(axi::make_ar(0, 0x8, 1, 3)); }
        if (v0.has_r()) {
            (void)v0.recv_r();
            ++g0;
        }
        if (v1.has_r()) {
            (void)v1.recv_r();
            ++g1;
        }
        ctx.step();
    }
    EXPECT_GT(g0, 50);
    EXPECT_NEAR(g0, g1, 3);
}

/// One manager in front of a 1-cycle and a 6-cycle subordinate, whose
/// first words hold different values so a test can tell the reads apart.
class XbarOrdering : public ::testing::Test {
protected:
    XbarOrdering() {
        AddrMap map;
        map.add(0x0000, 0x1000, 0, "fast").add(0x1000, 0x1000, 1, "slow");
        xbar = std::make_unique<AxiXbar>(ctx, "xbar", std::vector<axi::AxiChannel*>{&m0},
                                         std::vector<axi::AxiChannel*>{&fast, &slow}, map);
        fast_mem = std::make_unique<mem::AxiMemSlave>(
            ctx, "fast", fast, std::make_unique<mem::SramBackend>(1, 1),
            mem::AxiMemSlaveConfig{8, 8, 0});
        slow_mem = std::make_unique<mem::AxiMemSlave>(
            ctx, "slow", slow, std::make_unique<mem::SramBackend>(6, 6),
            mem::AxiMemSlaveConfig{8, 8, 0x1000});
        static_cast<mem::SramBackend&>(fast_mem->backend()).store().write_u64(0, kFastWord);
        static_cast<mem::SramBackend&>(slow_mem->backend()).store().write_u64(0, kSlowWord);
    }

    /// Issues a read of `id` to the slow subordinate, then one of `next_id`
    /// to the fast one a cycle later.
    void read_slow_then_fast(axi::IdT id, axi::IdT next_id) {
        axi::ManagerView mgr{m0};
        mgr.send_ar(axi::make_ar(id, 0x1000, 1, 3));
        ctx.step();
        mgr.send_ar(axi::make_ar(next_id, 0x0000, 1, 3));
    }

    static constexpr std::uint64_t kFastWord = 111;
    static constexpr std::uint64_t kSlowWord = 222;
    sim::SimContext ctx;
    axi::AxiChannel m0{ctx, "m0"};
    axi::AxiChannel fast{ctx, "fast"};
    axi::AxiChannel slow{ctx, "slow"};
    std::unique_ptr<AxiXbar> xbar;
    std::unique_ptr<mem::AxiMemSlave> fast_mem;
    std::unique_ptr<mem::AxiMemSlave> slow_mem;
};

TEST_F(XbarOrdering, SameIdToAnotherSubordinateWaitsAndReturnsInIssueOrder) {
    // The second read may not leave before the first one's response is
    // back, or the fast subordinate's data would overtake.
    read_slow_then_fast(7, 7);
    const axi::RFlit first = collect_read_burst(ctx, m0, 1);
    const axi::RFlit second = collect_read_burst(ctx, m0, 1);
    EXPECT_EQ(first_word(first), kSlowWord);
    EXPECT_EQ(first_word(second), kFastWord);
    EXPECT_GT(xbar->ordering_stalls(), 0U);
}

TEST_F(XbarOrdering, DifferentIdsMayOvertake) {
    read_slow_then_fast(1, 2);
    const axi::RFlit first = collect_read_burst(ctx, m0, 1);
    const axi::RFlit second = collect_read_burst(ctx, m0, 1);
    EXPECT_EQ(first.id, 2U) << "the fast read with another ID returns first";
    EXPECT_EQ(first_word(first), kFastWord);
    EXPECT_EQ(second.id, 1U);
    EXPECT_EQ(first_word(second), kSlowWord);
    EXPECT_EQ(xbar->ordering_stalls(), 0U);
}

} // namespace
} // namespace realm::ic
