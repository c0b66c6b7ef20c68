/// Tests for the ring NoC substrate and REALM-over-NoC integration
/// (Figure 1b of the paper: the unit is interconnect-agnostic), plus the
/// topology subsystem that builds rings from `ScenarioConfig`s.
#include "mem/axi_mem_slave.hpp"
#include "noc/ring.hpp"
#include "realm/realm_unit.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "scenario/topology.hpp"
#include "traffic/core.hpp"
#include "traffic/dma.hpp"
#include "traffic/workload.hpp"
#include "test_util.hpp"
#include "same_result.hpp"

#include <gtest/gtest.h>

#include <string>

namespace realm::noc {
namespace {

using scenario::FieldKind;
using test::collect_b;
using test::collect_read_burst;
using test::push_write_burst;
using test::step_until;

/// VCs of a ring link (and of a mesh link under every policy but O1TURN):
/// one per message class.
constexpr std::uint8_t kLinkVcs = link_num_vcs(RoutingPolicy::kXY);

/// 4-node ring: managers at 0/1, SRAMs at 2 (fast) and 3 (slow).
class RingFixture : public ::testing::Test {
protected:
    RingFixture() {
        ic::AddrMap map;
        map.add(0x0000, 0x10000, 2, "mem2");
        map.add(0x1'0000, 0x10000, 3, "mem3");
        ring = std::make_unique<NocRing>(ctx, "ring", 4, map,
                                         std::vector<noc::NodeId>{2, 3},
                                         std::vector<noc::NodeId>{0, 1},
                                         std::vector<noc::NodeId>{});
        mem2 = std::make_unique<mem::AxiMemSlave>(
            ctx, "mem2", ring->subordinate_port(2),
            std::make_unique<mem::SramBackend>(1, 1), mem::AxiMemSlaveConfig{8, 8, 0});
        mem3 = std::make_unique<mem::AxiMemSlave>(
            ctx, "mem3", ring->subordinate_port(3),
            std::make_unique<mem::SramBackend>(4, 4), mem::AxiMemSlaveConfig{8, 8, 0});
    }

    mem::SparseMemory& store2() {
        return static_cast<mem::SramBackend&>(mem2->backend()).store();
    }
    mem::SparseMemory& store3() {
        return static_cast<mem::SramBackend&>(mem3->backend()).store();
    }

    sim::SimContext ctx;
    std::unique_ptr<NocRing> ring;
    std::unique_ptr<mem::AxiMemSlave> mem2;
    std::unique_ptr<mem::AxiMemSlave> mem3;
};

TEST_F(RingFixture, WriteAndReadAcrossTheRing) {
    push_write_burst(ctx, ring->manager_port(0), 1, 0x100, 4, 8, 0x2A);
    const axi::BFlit b = collect_b(ctx, ring->manager_port(0));
    EXPECT_EQ(b.resp, axi::Resp::kOkay);
    EXPECT_EQ(store2().read_u8(0x100), 0x2A);

    axi::ManagerView mgr{ring->manager_port(0)};
    mgr.send_ar(axi::make_ar(2, 0x100, 4, 3));
    const axi::RFlit r = collect_read_burst(ctx, ring->manager_port(0), 4);
    EXPECT_EQ(r.id, 2U);
}

TEST_F(RingFixture, BothManagersReachBothSubordinates) {
    push_write_burst(ctx, ring->manager_port(0), 1, 0x0, 1, 8, 0x11);
    push_write_burst(ctx, ring->manager_port(1), 1, 0x1'0040, 1, 8, 0x22);
    (void)collect_b(ctx, ring->manager_port(0));
    (void)collect_b(ctx, ring->manager_port(1));
    EXPECT_EQ(store2().read_u8(0x0), 0x11);
    EXPECT_EQ(store3().read_u8(0x1'0040), 0x22);
    EXPECT_GT(ring->total_forwarded(), 0U) << "packets must actually hop the ring";
}

TEST_F(RingFixture, RoundTripConstantOnUnidirectionalRing) {
    // On a unidirectional ring, request hops + response hops always sum to
    // one full circle, so the idle round-trip latency is position-
    // independent — a property real ring NoCs share and a good structural
    // invariant for the router/NI pipelines.
    const auto measure = [&](std::uint8_t node, axi::Addr addr) {
        axi::ManagerView mgr{ring->manager_port(node)};
        const sim::Cycle t0 = ctx.now();
        mgr.send_ar(axi::make_ar(1, addr, 1, 3));
        step_until(ctx, [&] { return mgr.has_r(); });
        (void)mgr.recv_r();
        return ctx.now() - t0;
    };
    const sim::Cycle from0 = measure(0, 0x0);
    const sim::Cycle from1 = measure(1, 0x0);
    EXPECT_EQ(from0, from1);
    // And the ring costs more than a direct point-to-point hop would: at
    // least the 4 ring links plus the NI and memory pipelines.
    EXPECT_GE(from0, 8U);
}

TEST_F(RingFixture, SameIdOrderingAcrossNodesPreserved) {
    // Same ID to the slow then the fast subordinate: responses must come
    // back in order (the NI stalls like the crossbar would).
    axi::ManagerView mgr{ring->manager_port(0)};
    mgr.send_ar(axi::make_ar(5, 0x1'0000, 1, 3)); // slow node 3
    ctx.step();
    mgr.send_ar(axi::make_ar(5, 0x0000, 1, 3)); // fast node 2
    step_until(ctx, [&] { return mgr.has_r(); });
    // First response must belong to the slow subordinate's read (order!).
    // Both carry id 5, so verify via data: write distinct values first.
    (void)mgr.recv_r();
    step_until(ctx, [&] { return mgr.has_r(); });
    (void)mgr.recv_r();
    SUCCEED() << "both completed in order without protocol assertions firing";
}

TEST_F(RingFixture, DmaCopyOverRing) {
    for (axi::Addr a = 0; a < 0x1000; a += 8) { store2().write_u64(a, a ^ 0xABCD); }
    traffic::DmaConfig dcfg;
    dcfg.burst_beats = 16;
    traffic::DmaEngine dma{ctx, "dma", ring->manager_port(1), dcfg};
    dma.push_job(traffic::DmaJob{0x0, 0x1'0000, 0x1000, false});
    step_until(ctx, [&] { return dma.idle(); }, 100000);
    for (axi::Addr a = 0; a < 0x1000; a += 8) {
        ASSERT_EQ(store3().read_u64(0x1'0000 + a), a ^ 0xABCDU);
    }
}

TEST_F(RingFixture, RealmUnitRegulatesOverNoc) {
    // REALM in front of manager 1, budgeted: the same credit mechanism must
    // hold on a NoC (interconnect-agnostic claim of the paper).
    axi::AxiChannel mgr_up{ctx, "up"};
    rt::RealmUnitConfig rcfg;
    rcfg.fragment_beats = 4;
    rt::RealmUnit realm{ctx, "realm", mgr_up, ring->manager_port(1), rcfg};
    realm.set_region(0, rt::RegionConfig{0x0, 0x2'0000, 256, 500});

    traffic::DmaConfig dcfg;
    dcfg.burst_beats = 16;
    traffic::DmaEngine dma{ctx, "dma", mgr_up, dcfg};
    dma.push_job(traffic::DmaJob{0x0, 0x1'0000, 0x2000, true});
    const sim::Cycle horizon = 30000;
    ctx.run(horizon);
    const double bw = static_cast<double>(realm.mr().region(0).bytes_total) /
                      static_cast<double>(horizon);
    EXPECT_LE(bw, 256.0 / 500.0 * 1.4) << "budget must bind over the NoC too";
    EXPECT_GT(realm.mr().region(0).depletion_events, 5U);
    EXPECT_GT(realm.splitter().fragments_created(), 10U);
    EXPECT_GT(dma.chunks_completed(), 2U);
}

TEST_F(RingFixture, DefaultTransportIsCreditedAndBookkept) {
    // The fixture constructs the ring with the default flow config: the
    // credited transport with a live end-to-end credit book (the legacy
    // provisioned escape hatch is gone — credits are the only transport).
    // All the fixture traffic above therefore exercises worms + credits.
    ASSERT_NE(ring->credit_book(), nullptr);
    ring->check_flow_invariants();
}

TEST_F(RingFixture, CreditBookIsOneSubordinateByManagerTable) {
    // The ring shares the mesh's dense book: one pool per (subordinate,
    // manager) pair and direction, and traffic in both directions adds
    // none.
    const CreditBook& book = *ring->credit_book();
    EXPECT_EQ(book.subordinates(), (std::vector<NodeId>{2, 3}));
    EXPECT_EQ(book.managers(), (std::vector<NodeId>{0, 1}));
    EXPECT_EQ(book.pools(), 2U * 2U);
    push_write_burst(ctx, ring->manager_port(0), 1, 0x100, 4, 8, 0x2A);
    (void)collect_b(ctx, ring->manager_port(0));
    axi::ManagerView mgr{ring->manager_port(1)};
    mgr.send_ar(axi::make_ar(2, 0x1'0000, 4, 3));
    (void)collect_read_burst(ctx, ring->manager_port(1), 4);
    EXPECT_EQ(book.pools(), 2U * 2U);
    EXPECT_THROW((void)book.req(0, 1), sim::ContractViolation);
    EXPECT_THROW((void)book.rsp(2, 1), sim::ContractViolation);
    EXPECT_THROW((void)book.req(2, 4), sim::ContractViolation);
    EXPECT_THROW((void)book.rsp(4, 3), sim::ContractViolation);
    // No manager end: the subordinates neither send requests nor take
    // responses.
    EXPECT_THROW((void)book.req(2, 3), sim::ContractViolation);
    EXPECT_THROW((void)book.rsp(3, 2), sim::ContractViolation);
    ring->check_flow_invariants();
}

TEST_F(RingFixture, ManagerPortExistsOnlyAtManagerNodes) {
    EXPECT_NO_THROW((void)ring->manager_port(0));
    EXPECT_NO_THROW((void)ring->manager_port(1));
    EXPECT_THROW((void)ring->manager_port(2), sim::ContractViolation);
    EXPECT_THROW((void)ring->manager_port(3), sim::ContractViolation);
    EXPECT_THROW((void)ring->manager_port(4), sim::ContractViolation);
}

TEST(RingSubordinates, DuplicatedSubordinateNodeIsRejected) {
    // See MeshSubordinates.DuplicatedSubordinateNodeIsRejected: a second
    // mux on node 3 would strand every request ejected there.
    sim::SimContext ctx;
    ic::AddrMap map;
    map.add(0x0000, 0x10000, 3, "mem3");
    EXPECT_THROW((NocRing{ctx, "ring", 6, map, std::vector<NodeId>{3, 3},
                          std::vector<NodeId>{0}, std::vector<NodeId>{}}),
                 sim::ContractViolation);
}

TEST(RingManagers, DuplicatedManagerNodeIsRejected) {
    sim::SimContext ctx;
    ic::AddrMap map;
    map.add(0x0000, 0x10000, 3, "mem3");
    EXPECT_THROW((NocRing{ctx, "ring", 6, map, std::vector<NodeId>{3},
                          std::vector<NodeId>{1, 1}, std::vector<NodeId>{}}),
                 sim::ContractViolation);
}

TEST(RingManagers, RealmNodeWithoutAManagerIsRejected) {
    // A REALM unit sits in front of a manager port; naming another node
    // would give no port the unit's pass-through responses.
    sim::SimContext ctx;
    ic::AddrMap map;
    map.add(0x0000, 0x10000, 3, "mem3");
    EXPECT_NO_THROW((NocRing{ctx, "ring", 6, map, std::vector<NodeId>{3},
                             std::vector<NodeId>{0, 1}, std::vector<NodeId>{1}}));
    sim::SimContext other;
    EXPECT_THROW((NocRing{other, "ring", 6, map, std::vector<NodeId>{3},
                          std::vector<NodeId>{0, 1}, std::vector<NodeId>{2}}),
                 sim::ContractViolation);
}

/// A two-node fabric that declares `declared` links and builds `built`.
class LinkCountFabric final : public NocFabric {
public:
    LinkCountFabric(sim::SimContext& ctx, std::size_t declared, std::size_t built)
        : NocFabric{ctx, "f", 2, one_memory_map(), std::vector<NodeId>{1},
                    std::vector<NodeId>{0}, std::vector<NodeId>{}, NocFlowConfig{},
                    /*deferred_credits=*/false, LinkPlan{declared}} {
        for (std::size_t i = 0; i < built; ++i) { add_link(ctx, ".l" + std::to_string(i)); }
        build_egress(ctx);
    }

private:
    static ic::AddrMap one_memory_map() {
        ic::AddrMap map;
        map.add(0x0000, 0x10000, 1, "mem1");
        return map;
    }
};

/// The message of the contract violation `build` throws, or "" if none.
template <typename Build>
std::string violation(Build&& build) {
    try {
        build();
    } catch (const sim::ContractViolation& e) {
        return e.what();
    }
    return "";
}

TEST(NocFabricLinks, EveryDeclaredLinkAndNoMoreIsBuilt) {
    // The fabric sizes its link block and slot block from the declared
    // count once; a fabric that builds a different number is miswired.
    sim::SimContext ctx;
    EXPECT_NO_THROW((LinkCountFabric{ctx, 2, 2}));
    const std::string extra = violation([&] { LinkCountFabric f{ctx, 2, 3}; });
    EXPECT_NE(extra.find("more links than the 2 declared"), std::string::npos) << extra;
    const std::string missing = violation([&] { LinkCountFabric f{ctx, 2, 1}; });
    EXPECT_NE(missing.find("1 links built, 2 declared"), std::string::npos) << missing;
}

/// Pops every packet `link` can hand out this cycle, on every VC.
void drain(NocLink& link) {
    for (std::uint8_t vc = 0; vc < link.num_vcs(); ++vc) {
        while (link.can_pop(vc)) { (void)link.pop(vc); }
    }
}

/// The response side of one subordinate NI, driven by hand: the last node
/// (`sub`, node 3 of 4 by default) hosts the subordinate, the managers sit
/// at `managers`, and the test plays the egress mux by pushing responses
/// into the managers' egress lanes directly.
class NiResponseScan : public ::testing::Test {
protected:
    void build(std::vector<NodeId> managers, NodeId sub = 3) {
        book = std::make_unique<CreditBook>(ctx, static_cast<NodeId>(sub + 1),
                                            std::vector<NodeId>{sub}, std::move(managers),
                                            fc, /*deferred=*/false);
        ni = std::make_unique<NocNi>(ctx, "ni" + std::to_string(sub), sub, fc, book.get());
        for (const NodeId m : book->managers()) {
            lanes.push_back(std::make_unique<axi::AxiChannel>(
                ctx, "eg3_" + std::to_string(m), staging_depth(fc)));
            lane_ptrs.push_back(lanes.back().get());
        }
    }
    /// Makes one write response ready in every manager's lane, all in the
    /// same cycle.
    void ready_all() {
        for (const auto& lane : lanes) { lane->b.push(axi::BFlit{}); }
        ctx.step();
    }
    /// Lets the NI inject one response and returns its destination.
    NodeId inject_one() {
        NodeId dest = CreditBook::kNoSlot;
        EXPECT_TRUE(ni->inject_responses(
            lane_ptrs,
            [&](NodeId d, std::uint32_t flits, std::uint8_t vc) {
                dest = d;
                return out.can_push(flits, vc) ? &out : nullptr;
            },
            [](NodeId, std::uint8_t) { return std::uint8_t{0}; }));
        ctx.step();
        return dest;
    }

    sim::SimContext ctx;
    NocFlowConfig fc;
    std::vector<NocLink::Slot> out_slots =
        std::vector<NocLink::Slot>(NocLink::slots_needed(fc, kLinkVcs));
    NocLink out{ctx, "rsp_out", fc, out_slots, kLinkVcs};
    std::unique_ptr<CreditBook> book;
    std::unique_ptr<NocNi> ni;
    std::vector<std::unique_ptr<axi::AxiChannel>> lanes;
    std::vector<axi::AxiChannel*> lane_ptrs;
};

TEST_F(NiResponseScan, NodeZeroWithoutAManagerServesTheLowestManagerFirst) {
    // The response round-robin grants what a scan over every node,
    // starting one past node 0, would: with node 0 hosting no manager, the
    // lowest manager first. Listed out of order: slots follow node order.
    build({2, 1});
    ready_all();
    EXPECT_EQ(inject_one(), 1U);
    EXPECT_EQ(inject_one(), 2U);
}

TEST_F(NiResponseScan, NodeZeroWithAManagerIsServedLastOnTheFirstScan) {
    // The same scan starts one past node 0, so node 0's manager waits.
    build({0, 2});
    ready_all();
    EXPECT_EQ(inject_one(), 2U);
    EXPECT_EQ(inject_one(), 0U);
}

TEST_F(NiResponseScan, AManagerWaitingOnABusyOutputIsServedWithinOneTurn) {
    // Managers 0 and 2 wait for output 0, whose 4-flit R worms keep it busy
    // three cycles in four; manager 1 sends 1-flit B's on output 1, free
    // every cycle. A pointer shared by both outputs would pass manager 0
    // while output 0 is busy and sit on manager 2 each time it frees; with
    // a pointer per output, managers 0 and 2 take turns.
    build({0, 1, 2});
    std::vector<NocLink::Slot> busy_slots(NocLink::slots_needed(fc, kLinkVcs));
    NocLink busy{ctx, "rsp_busy", fc, busy_slots, kLinkVcs};
    std::vector<NodeId> served; // on output 0, in order
    const auto route = [&](NodeId d, std::uint32_t flits, std::uint8_t vc) -> NocLink* {
        NocLink& link = d == 1 ? out : busy;
        if (!link.can_push(flits, vc)) { return nullptr; }
        if (d != 1) { served.push_back(d); }
        return &link;
    };
    const auto first_hop = [](NodeId d, std::uint8_t) {
        return static_cast<std::uint8_t>(d == 1 ? 1 : 0);
    };
    for (int cycle = 0; cycle < 64; ++cycle) {
        for (std::size_t slot = 0; slot < lanes.size(); ++slot) {
            axi::AxiChannel& lane = *lanes[slot];
            while (slot == 1 && lane.b.occupancy() < 2) { lane.b.push(axi::BFlit{}); }
            while (slot != 1 && lane.r.occupancy() < 2) { lane.r.push(axi::RFlit{}); }
        }
        (void)ni->inject_responses(lane_ptrs, route, first_hop);
        ctx.step();
        drain(busy);
        drain(out);
    }
    ASSERT_GE(served.size(), 12U);
    for (std::size_t i = 1; i < served.size(); ++i) {
        EXPECT_NE(served[i], served[i - 1]) << "service " << i << " on output 0";
    }
}

TEST_F(NiResponseScan, AManagersReadResponseFollowsItsOwnWriteResponse) {
    // B and R are separate requesters, as they are separate channels on the
    // crossbar: manager slot 0 has a B and an R waiting, slots 1 and 2 an R
    // each, all for one output. Slot 0's R goes right after its B instead
    // of waiting a round of the other managers (B0, R1, R2, R0).
    build({1, 2, 3}, 4);
    lanes[0]->b.push(axi::BFlit{});
    for (const auto& lane : lanes) { lane->r.push(axi::RFlit{.last = true}); }
    ctx.step();
    std::vector<std::string> sent;
    for (int cycle = 0; cycle < 32 && sent.size() < 4; ++cycle) {
        (void)ni->inject_responses(
            lane_ptrs,
            [&](NodeId d, std::uint32_t flits, std::uint8_t vc) -> NocLink* {
                if (!out.can_push(flits, vc)) { return nullptr; }
                std::string tag(1, flits == 1 ? 'B' : 'R');
                tag += std::to_string(book->manager_slot(d));
                sent.push_back(tag);
                return &out;
            },
            [](NodeId, std::uint8_t) { return std::uint8_t{0}; });
        ctx.step();
        drain(out);
    }
    EXPECT_EQ(sent, (std::vector<std::string>{"B0", "R0", "R1", "R2"}));
}

/// The request side of one manager NI, driven by hand: node 0 of a 4-node
/// fabric hosts the manager, node 3 the only subordinate, and the test
/// plays the network: it takes requests off the outgoing link and hands
/// the NI responses as if they had crossed the fabric.
class NiReservation : public ::testing::Test {
protected:
    NiReservation() { map.add(0x0, 0x10000, 3, "mem3"); }
    /// Lets the NI inject at most one request; true when one went out.
    bool inject() {
        const bool sent = ni.inject_requests(
            mgr, map, [&](NodeId, std::uint32_t flits, std::uint8_t vc) {
                return out.can_push(flits, vc) ? &out : nullptr;
            });
        ctx.step();
        drain(out);
        book.check_conserved();
        return sent;
    }
    /// Delivers one read-response beat from node 3 to the manager.
    void respond(axi::IdT id, bool last) {
        NocPacket pkt;
        pkt.src = 3;
        pkt.dest = 0;
        pkt.flits = static_cast<std::uint8_t>(fc.flits_per_packet);
        pkt.seq = rsp_seq++;
        pkt.flit = axi::RFlit{.id = id, .last = last};
        ASSERT_TRUE(ni.try_eject_response(pkt, &mgr));
        ctx.step();
        (void)mgr.r.pop();
        book.check_conserved();
    }
    /// The manager's response pool for the subordinate.
    [[nodiscard]] const CreditPool& pool() const { return book.rsp(0, 3); }

    sim::SimContext ctx;
    NocFlowConfig fc; // 32-flit pools, 4-flit R worms
    ic::AddrMap map;
    CreditBook book{ctx, 4, {3}, {0}, fc, /*deferred=*/false};
    NocNi ni{ctx, "ni0", 0, fc, &book};
    axi::AxiChannel mgr{ctx, "mgr0", 8};
    std::vector<NocLink::Slot> out_slots =
        std::vector<NocLink::Slot>(NocLink::slots_needed(fc, kLinkVcs));
    NocLink out{ctx, "req_out", fc, out_slots, kLinkVcs};
    std::uint16_t rsp_seq = 0;
};

TEST_F(NiReservation, AReadWithoutResponseCreditsWaitsAtTheHead) {
    // Four 2-beat reads reserve 4 x 8 flits, the whole pool; the fifth
    // waits at the head until the first read's response is delivered.
    for (axi::IdT id = 0; id < 5; ++id) { mgr.ar.push(axi::make_ar(id, 0x100, 2, 3)); }
    ctx.step();
    for (int i = 0; i < 4; ++i) { ASSERT_TRUE(inject()) << "read " << i; }
    EXPECT_EQ(pool().in_flight(), 32U);
    for (int i = 0; i < 3; ++i) { EXPECT_FALSE(inject()) << "cycle " << i; }
    EXPECT_EQ(mgr.ar.occupancy(), 1U) << "the fifth read waits at the head";
    respond(0, false);
    EXPECT_EQ(pool().in_flight(), 28U) << "each delivered beat returns its flits";
    EXPECT_FALSE(inject()) << "4 flits free, the read needs 8";
    respond(0, true);
    EXPECT_TRUE(inject());
    EXPECT_EQ(pool().in_flight(), 32U);
    EXPECT_EQ(ni.unreserved_response_flits(3), 0U);
}

TEST_F(NiReservation, AnOversizeReadGoesOutUnreservedAndReturnsNoCredits) {
    // A 16-beat read's response (64 flits) exceeds the whole pool: it goes
    // out without a reservation, beside a reserved 2-beat read, and only
    // the reserved read returns credits, whatever order they return in.
    mgr.ar.push(axi::make_ar(1, 0x100, 16, 3));
    mgr.ar.push(axi::make_ar(2, 0x200, 2, 3));
    ctx.step();
    ASSERT_TRUE(inject());
    EXPECT_EQ(pool().in_flight(), 0U);
    EXPECT_EQ(ni.unreserved_response_flits(3), 64U);
    ASSERT_TRUE(inject());
    EXPECT_EQ(pool().in_flight(), 8U);
    respond(2, false);
    respond(2, true);
    EXPECT_EQ(pool().in_flight(), 0U);
    for (int beat = 0; beat < 16; ++beat) {
        respond(1, beat == 15);
        EXPECT_EQ(pool().in_flight(), 0U) << "beat " << beat;
    }
    EXPECT_EQ(ni.unreserved_response_flits(3), 0U);
}

TEST(RingCreditDelay, DelayedCreditReturnsStillCompleteEndToEnd) {
    // With credit_return_delay the end-to-end credits ride the response
    // network instead of materializing at the drain point; traffic must
    // still complete (slower round trips, never a leak).
    sim::SimContext ctx;
    ic::AddrMap map;
    map.add(0x0, 0x10000, 2, "mem2");
    NocFlowConfig fc;
    fc.credit_return_delay = 6;
    NocRing ring{ctx, "ring", 4, map, std::vector<noc::NodeId>{2},
                 std::vector<noc::NodeId>{0}, std::vector<noc::NodeId>{}, fc};
    ASSERT_NE(ring.credit_book(), nullptr);
    mem::AxiMemSlave mem2{ctx, "mem2", ring.subordinate_port(2),
                          std::make_unique<mem::SramBackend>(1, 1),
                          mem::AxiMemSlaveConfig{8, 8, 0}};
    push_write_burst(ctx, ring.manager_port(0), 1, 0x100, 4, 8, 0x2A);
    const axi::BFlit b = collect_b(ctx, ring.manager_port(0));
    EXPECT_EQ(b.resp, axi::Resp::kOkay);
    EXPECT_EQ(static_cast<mem::SramBackend&>(mem2.backend()).store().read_u8(0x100),
              0x2A);
    ring.check_flow_invariants();
}

TEST_F(RingFixture, BackpressureDoesNotDeadlock) {
    // Saturate both subordinates from both managers simultaneously with
    // interleaved reads and writes; everything must drain.
    traffic::RandomWorkload wl0{{.base = 0x0,
                                 .bytes = 0x8000,
                                 .op_bytes = 8,
                                 .store_ratio16 = 8,
                                 .num_ops = 200,
                                 .seed = 3}};
    traffic::RandomWorkload wl1{{.base = 0x1'0000,
                                 .bytes = 0x8000,
                                 .op_bytes = 8,
                                 .store_ratio16 = 8,
                                 .num_ops = 200,
                                 .seed = 4}};
    traffic::CoreModel c0{ctx, "c0", ring->manager_port(0), wl0};
    traffic::CoreModel c1{ctx, "c1", ring->manager_port(1), wl1};
    ASSERT_TRUE(ctx.run_until([&] { return c0.done() && c1.done(); }, 1'000'000));
    EXPECT_EQ(c0.loads_retired() + c0.stores_retired(), 200U);
    EXPECT_EQ(c1.loads_retired() + c1.stores_retired(), 200U);
}

// --- Topology subsystem: rings built from ScenarioConfigs --------------------

using scenario::RingRole;
using scenario::ScenarioConfig;
using scenario::ScenarioResult;

TEST(RingRoles, CanonicalLayoutAssignsEveryRole) {
    const auto specs = scenario::make_ring_roles(8, 2, 2);
    ASSERT_EQ(specs.size(), 8U);
    EXPECT_EQ(specs[0].role, RingRole::kVictim);
    EXPECT_TRUE(specs[0].realm) << "manager nodes get a REALM unit by default";
    std::size_t victims = 0;
    std::size_t memories = 0;
    std::size_t attackers = 0;
    for (const auto& s : specs) {
        victims += s.role == RingRole::kVictim;
        memories += s.role == RingRole::kMemory;
        attackers += s.role == RingRole::kInterference;
        if (s.role == RingRole::kInterference) { EXPECT_TRUE(s.realm); }
        if (s.role == RingRole::kMemory) { EXPECT_FALSE(s.realm); }
    }
    EXPECT_EQ(victims, 1U);
    EXPECT_EQ(memories, 2U);
    EXPECT_EQ(attackers, 2U);
}

/// Small contended ring point from the registry (8 nodes, hog attacker).
ScenarioConfig small_ring_point(std::size_t index) {
    scenario::Sweep sweep = scenario::make_sweep("ring-dos-smoke");
    return sweep.points.at(index).config;
}

TEST(RingTopology, ScenarioRunsEndToEnd) {
    const ScenarioResult res = run_scenario(small_ring_point(0), "ring");
    EXPECT_TRUE(res.boot_ok);
    EXPECT_FALSE(res.timed_out);
    EXPECT_GT(res.ops, 0U);
    EXPECT_GT(res.load_lat_mean, 0.0);
    EXPECT_GT(res.fabric_hops, 0U) << "traffic must actually cross ring hops";
    EXPECT_GT(res.dma_bytes, 0U) << "the interference DMA must run";
}

TEST(RingTopology, RealmPlacementRegulatesTheAttacker) {
    // Smoke points 0/1 are the same 1-attacker hog cell without/with the
    // budget defense; regulation must deplete credits and restore the
    // victim's latency (the interconnect-agnostic claim, asserted).
    const ScenarioResult none = run_scenario(small_ring_point(0), "none");
    const ScenarioResult budget = run_scenario(small_ring_point(1), "budget");
    EXPECT_EQ(budget.ops, none.ops);
    EXPECT_GT(budget.dma_depletions, 0U) << "budget must bind over the NoC";
    EXPECT_LT(budget.dma_read_bw, none.dma_read_bw / 2.0);
    EXPECT_LT(budget.load_lat_mean, none.load_lat_mean);
}

TEST(RingTopology, VictimWithoutRealmAttachesDirectly) {
    ScenarioConfig cfg = small_ring_point(0);
    for (auto& node : std::get<scenario::RingTopologyConfig>(cfg.fabric).nodes) {
        node.realm = false;
    }
    const ScenarioResult res = run_scenario(cfg, "no-realm");
    EXPECT_FALSE(res.timed_out);
    EXPECT_GT(res.ops, 0U);
    EXPECT_EQ(res.dma_depletions, 0U) << "no units, no regulation";
}

TEST(RingSchedulerEquivalence, ActivityMatchesTickAllBitForBit) {
    // Acceptance gate: the activity scheduler must match kTickAll on a ring
    // scenario — NocNode, the egress muxes, and the memory slaves all honour
    // their idle contracts. The W-stall cell stresses reservation stalls.
    ScenarioConfig cfg = small_ring_point(2); // 1atk/wstall/none
    cfg.scheduler = sim::Scheduler::kTickAll;
    const ScenarioResult naive = scenario::run_scenario(cfg);
    cfg.scheduler = sim::Scheduler::kActivity;
    const ScenarioResult fast = scenario::run_scenario(cfg);

    ASSERT_FALSE(naive.timed_out);
    EXPECT_TRUE(test::same_result(naive, fast, FieldKind::kKernel));

    EXPECT_EQ(naive.ticks_skipped, 0U);
    EXPECT_GT(fast.ticks_skipped, 0U) << "idle ring components must be skipped";
    EXPECT_LT(fast.ticks_executed, naive.ticks_executed);
}

TEST(RingSchedulerEquivalence, LargeIdleRingFastForwards) {
    // A 32-node ring whose traffic drains early: the idle tail must
    // fast-forward once every node, mux, and memory declares idle.
    ScenarioConfig cfg = small_ring_point(0);
    auto& ring = std::get<scenario::RingTopologyConfig>(cfg.fabric);
    ring.num_nodes = 32;
    ring.nodes = scenario::make_ring_roles(32, 1, 2);
    cfg.interference[0].loop = false; // finite copy, then quiescence
    cfg.cooldown_cycles = 500'000;
    const ScenarioResult res = scenario::run_scenario(cfg, "idle-ring");
    EXPECT_FALSE(res.timed_out);
    EXPECT_GT(res.fast_forwarded_cycles, 400'000U)
        << "a fully idle ring must cost (almost) nothing";
}

} // namespace
} // namespace realm::noc
