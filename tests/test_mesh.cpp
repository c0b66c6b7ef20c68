/// Tests for the 2D-mesh NoC: XY dimension-ordered routing invariants, the
/// mesh substrate and its NI, REALM-over-mesh regulation, the topology
/// subsystem's `kMesh` handle, and the fabric-comparative DoS-matrix
/// registry (same cells on crossbar, ring, and mesh).
#include "mem/axi_mem_slave.hpp"
#include "noc/mesh.hpp"
#include "realm/realm_unit.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "scenario/topology.hpp"
#include "traffic/core.hpp"
#include "traffic/dma.hpp"
#include "traffic/workload.hpp"
#include "test_util.hpp"
#include "same_result.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <variant>

namespace realm::noc {
namespace {

using scenario::FieldKind;
using test::collect_b;
using test::collect_read_burst;
using test::push_write_burst;
using test::step_until;

// --- XY routing invariants ---------------------------------------------------

/// Walks the XY route from `src` to `dest`, returning the node sequence.
std::vector<std::uint8_t> walk_route(std::uint8_t rows, std::uint8_t cols,
                                     std::uint8_t src, std::uint8_t dest) {
    std::vector<std::uint8_t> path{src};
    std::uint8_t cur = src;
    for (int guard = 0; guard < 256; ++guard) {
        const auto hop = xy_next_hop(cols, cur, dest);
        if (!hop.has_value()) { return path; }
        switch (*hop) {
        case MeshDir::kNorth: cur = static_cast<std::uint8_t>(cur - cols); break;
        case MeshDir::kEast: cur = static_cast<std::uint8_t>(cur + 1); break;
        case MeshDir::kSouth: cur = static_cast<std::uint8_t>(cur + cols); break;
        case MeshDir::kWest: cur = static_cast<std::uint8_t>(cur - 1); break;
        }
        EXPECT_LT(cur, rows * cols) << "route left the mesh";
        path.push_back(cur);
    }
    ADD_FAILURE() << "route did not terminate";
    return path;
}

TEST(XyRouting, PathsAreMinimalDeterministicAndTurnFree) {
    // Every pair on a 4x6 (24-node) mesh: the XY route terminates at the
    // destination, has exactly Manhattan length, never reverses direction
    // (no 180-degree turns), and corrects X strictly before Y.
    constexpr std::uint8_t rows = 4;
    constexpr std::uint8_t cols = 6;
    for (std::uint8_t src = 0; src < rows * cols; ++src) {
        for (std::uint8_t dest = 0; dest < rows * cols; ++dest) {
            const auto path = walk_route(rows, cols, src, dest);
            ASSERT_FALSE(path.empty());
            EXPECT_EQ(path.back(), dest);
            const int dr = std::abs(int(src / cols) - int(dest / cols));
            const int dc = std::abs(int(src % cols) - int(dest % cols));
            EXPECT_EQ(path.size(), static_cast<std::size_t>(dr + dc) + 1)
                << "route must be minimal";
            // Dimension order: once a hop changes the row, no later hop may
            // change the column.
            bool y_phase = false;
            std::optional<MeshDir> prev;
            for (std::size_t i = 0; i + 1 < path.size(); ++i) {
                const auto hop = xy_next_hop(cols, path[i], dest);
                ASSERT_TRUE(hop.has_value());
                if (prev) {
                    EXPECT_NE(*hop, opposite(*prev)) << "180-degree turn";
                }
                const bool vertical =
                    *hop == MeshDir::kNorth || *hop == MeshDir::kSouth;
                if (y_phase) { EXPECT_TRUE(vertical) << "X move after Y move"; }
                y_phase = y_phase || vertical;
                prev = hop;
            }
            // Determinism: re-walking produces the identical node sequence.
            EXPECT_EQ(walk_route(rows, cols, src, dest), path);
        }
    }
}

TEST(XyRouting, SelfIsEjection) {
    EXPECT_FALSE(xy_next_hop(6, 13, 13).has_value());
    EXPECT_EQ(opposite(MeshDir::kNorth), MeshDir::kSouth);
    EXPECT_EQ(opposite(MeshDir::kEast), MeshDir::kWest);
}

// --- Pluggable routing policies ----------------------------------------------

constexpr auto& kPolicies = kAllRoutingPolicies;

/// Applies one hop to a node id.
std::uint8_t step_dir(std::uint8_t cols, std::uint8_t cur, MeshDir d) {
    switch (d) {
    case MeshDir::kNorth: return static_cast<std::uint8_t>(cur - cols);
    case MeshDir::kEast: return static_cast<std::uint8_t>(cur + 1);
    case MeshDir::kSouth: return static_cast<std::uint8_t>(cur + cols);
    case MeshDir::kWest: return static_cast<std::uint8_t>(cur - 1);
    }
    return cur;
}

int manhattan(std::uint8_t cols, std::uint8_t a, std::uint8_t b) {
    return std::abs(int(a / cols) - int(b / cols)) +
           std::abs(int(a % cols) - int(b % cols));
}

TEST(RoutingPolicies, YxPathsAreMinimalDeterministicAndRowFirst) {
    // The YX mirror of the XY invariant: terminates, Manhattan-minimal,
    // never reverses, and corrects the row strictly before the column.
    constexpr std::uint8_t rows = 4;
    constexpr std::uint8_t cols = 6;
    for (std::uint8_t src = 0; src < rows * cols; ++src) {
        for (std::uint8_t dest = 0; dest < rows * cols; ++dest) {
            std::uint8_t cur = src;
            bool x_phase = false;
            std::optional<MeshDir> prev;
            int hops = 0;
            while (cur != dest) {
                const auto hop = yx_next_hop(cols, cur, dest);
                ASSERT_TRUE(hop.has_value());
                if (prev) { EXPECT_NE(*hop, opposite(*prev)) << "180-degree turn"; }
                const bool horizontal =
                    *hop == MeshDir::kEast || *hop == MeshDir::kWest;
                if (x_phase) { EXPECT_TRUE(horizontal) << "Y move after X move"; }
                x_phase = x_phase || horizontal;
                prev = hop;
                cur = step_dir(cols, cur, *hop);
                ASSERT_LT(cur, rows * cols);
                ASSERT_LE(++hops, manhattan(cols, src, dest)) << "not minimal";
            }
            EXPECT_EQ(hops, manhattan(cols, src, dest));
            EXPECT_FALSE(yx_next_hop(cols, dest, dest).has_value());
        }
    }
}

TEST(RoutingPolicies, EveryPolicyPermitsOnlyProductiveHops) {
    // Exhaustive over a 4x6 mesh, both route classes: permitted hops are
    // non-empty away from the destination, unique, strictly reduce the
    // Manhattan distance (minimality — which also rules out 180-degree
    // turns), and the set is empty exactly at the destination.
    constexpr std::uint8_t rows = 4;
    constexpr std::uint8_t cols = 6;
    for (const RoutingPolicy policy : kPolicies) {
        for (std::uint8_t cur = 0; cur < rows * cols; ++cur) {
            for (std::uint8_t dest = 0; dest < rows * cols; ++dest) {
                for (std::uint8_t cls = 0; cls < route_num_vcs(policy); ++cls) {
                    const HopSet hops = permitted_hops(policy, cols, cur, dest, cls);
                    if (cur == dest) {
                        EXPECT_TRUE(hops.empty());
                        continue;
                    }
                    ASSERT_GT(hops.count, 0U) << to_string(policy);
                    for (std::uint8_t k = 0; k < hops.count; ++k) {
                        const std::uint8_t next = step_dir(cols, cur, hops.dir[k]);
                        ASSERT_LT(next, rows * cols)
                            << to_string(policy) << " leaves the mesh";
                        EXPECT_EQ(manhattan(cols, next, dest),
                                  manhattan(cols, cur, dest) - 1)
                            << to_string(policy) << " permits a non-productive hop";
                    }
                    if (hops.count == 2) { EXPECT_NE(hops.dir[0], hops.dir[1]); }
                }
            }
        }
    }
}

TEST(RoutingPolicies, WestFirstProhibitsTurnsIntoWest) {
    // The Glass/Ni turn-model argument hinges on west hops coming first:
    // whenever the destination lies west, west is the *only* permitted hop,
    // so no N->W / S->W turn can ever be generated.
    constexpr std::uint8_t rows = 4;
    constexpr std::uint8_t cols = 6;
    for (std::uint8_t cur = 0; cur < rows * cols; ++cur) {
        for (std::uint8_t dest = 0; dest < rows * cols; ++dest) {
            if (cur == dest) { continue; }
            const HopSet hops =
                permitted_hops(RoutingPolicy::kWestFirst, cols, cur, dest, 0);
            const bool dest_west = dest % cols < cur % cols;
            bool has_west = false;
            for (std::uint8_t k = 0; k < hops.count; ++k) {
                has_west = has_west || hops.dir[k] == MeshDir::kWest;
            }
            if (dest_west) {
                EXPECT_EQ(hops.count, 1U);
                EXPECT_TRUE(has_west) << "westward distance must drain first";
            } else {
                EXPECT_FALSE(has_west) << "west is never an adaptive option";
            }
        }
    }
}

TEST(RoutingPolicies, O1TurnClassIsDeterministicPerWormAndUsesBothRails) {
    // The per-worm class is a pure function of (src, dest, seq) — replays
    // are deterministic — and over a window of worms both rails appear
    // (otherwise the policy degenerates to XY or YX). Class selects the rails.
    EXPECT_EQ(route_num_vcs(RoutingPolicy::kO1Turn), 2);
    EXPECT_EQ(route_num_vcs(RoutingPolicy::kXY), 1);
    bool saw[2] = {false, false};
    for (std::uint16_t seq = 0; seq < 64; ++seq) {
        const std::uint8_t cls = route_class(RoutingPolicy::kO1Turn, 3, 17, seq);
        ASSERT_LE(cls, 1);
        EXPECT_EQ(cls, route_class(RoutingPolicy::kO1Turn, 3, 17, seq))
            << "class must be replay-deterministic";
        saw[cls] = true;
        // Deterministic policies always ride route class 0.
        EXPECT_EQ(route_class(RoutingPolicy::kWestFirst, 3, 17, seq), 0);
    }
    EXPECT_TRUE(saw[0] && saw[1]) << "both rails must be exercised";
    // Class 0 follows the XY rails, class 1 the YX rails.
    const HopSet h0 = permitted_hops(RoutingPolicy::kO1Turn, 6, 0, 23, 0);
    const HopSet h1 = permitted_hops(RoutingPolicy::kO1Turn, 6, 0, 23, 1);
    ASSERT_EQ(h0.count, 1U);
    ASSERT_EQ(h1.count, 1U);
    EXPECT_EQ(h0.dir[0], *xy_next_hop(6, 0, 23));
    EXPECT_EQ(h1.dir[0], *yx_next_hop(6, 0, 23));
}

TEST(RoutingPolicies, NamesRoundTrip) {
    for (const RoutingPolicy policy : kPolicies) {
        const auto parsed = parse_routing_policy(to_string(policy));
        ASSERT_TRUE(parsed.has_value()) << to_string(policy);
        EXPECT_EQ(*parsed, policy);
    }
    EXPECT_FALSE(parse_routing_policy("extra").has_value());
}

TEST(RoutingPolicies, LinksCarryOneVcPerRouteClassAndMessageClass) {
    // `route_num_vcs` counts route classes; a link doubles them, reads
    // apart from writes.
    for (const RoutingPolicy policy : kAllRoutingPolicies) {
        EXPECT_EQ(link_num_vcs(policy), policy == RoutingPolicy::kO1Turn ? 4 : 2)
            << to_string(policy);
        for (std::uint8_t route = 0; route < route_num_vcs(policy); ++route) {
            for (std::uint8_t message = 0; message < kMessageClasses; ++message) {
                const std::uint8_t vc = packet_vc(route, message);
                EXPECT_LT(vc, link_num_vcs(policy));
                EXPECT_EQ(vc_route_class(vc), route);
            }
        }
    }
}

// --- Mesh substrate ----------------------------------------------------------

/// The endpoints of a 2x3 mesh without its links — a manager at node 0 and
/// subordinates at nodes 2 and 4 — so a test can wire one router by hand.
class BareMeshFabric final : public NocFabric {
public:
    BareMeshFabric(sim::SimContext& ctx, ic::AddrMap map)
        : NocFabric{ctx, "f", 6, std::move(map), std::vector<NodeId>{2, 4},
                    std::vector<NodeId>{0}, std::vector<NodeId>{}, NocFlowConfig{},
                    /*deferred_credits=*/false, LinkPlan{}} {
        build_egress(ctx);
    }
};

TEST(MeshRouterVcs, AReadPassesAWriteBlockedOnAnotherOutput) {
    // Node 0's NI sends a write to node 2 and then a read to node 4 through
    // router 1: the write goes east, the read south. East holds a stale
    // worm nobody drains, so the write's W worm blocks at router 1's west
    // input. The read rides its own VC and leaves the cycle it reaches the
    // router, as the crossbar's AR channel never waits on AW or W; on one
    // shared VC it would wait behind the W until the worm moved.
    sim::SimContext ctx;
    const NocFlowConfig fc;
    ic::AddrMap map;
    map.add(0x0000, 0x10000, 2, "mem2");
    map.add(0x1'0000, 0x10000, 4, "mem4");
    BareMeshFabric fabric{ctx, map};
    const std::uint8_t vcs = link_num_vcs(RoutingPolicy::kXY);
    std::vector<NocLink::Slot> w_slots(NocLink::slots_needed(fc, vcs));
    std::vector<NocLink::Slot> e_slots(w_slots.size());
    std::vector<NocLink::Slot> s_slots(w_slots.size());
    NocLink in_west{ctx, "w1", fc, w_slots, vcs}; // node 0 -> router 1
    NocLink out_east{ctx, "e1", fc, e_slots, vcs};
    NocLink out_south{ctx, "s1", fc, s_slots, vcs};
    MeshRouter::Ports ports;
    ports.req_in[static_cast<std::size_t>(MeshDir::kWest)] = &in_west;
    ports.req_out[static_cast<std::size_t>(MeshDir::kEast)] = &out_east;
    ports.req_out[static_cast<std::size_t>(MeshDir::kSouth)] = &out_south;
    MeshRouter router{ctx, "r1", 1, fabric, 3, ports, RoutingPolicy::kXY};

    // A stale worm leaves east room for the AW's one flit, not for a W.
    NocPacket stale;
    stale.src = 0;
    stale.dest = 2;
    stale.flits = static_cast<std::uint8_t>(fc.flits_per_packet);
    stale.flit = axi::WFlit{};
    out_east.push(stale);

    CreditBook book{ctx, 6, {2, 4}, {0}, fc, /*deferred=*/false};
    NocNi ni{ctx, "ni0", 0, fc, &book};
    axi::AxiChannel mgr{ctx, "mgr0", 8};
    mgr.aw.push(axi::AwFlit{.addr = 0x0});
    mgr.w.push(axi::WFlit{.last = true});
    mgr.ar.push(axi::ArFlit{.addr = 0x1'0000});
    ctx.step();
    const auto into_west = [&](NodeId, std::uint32_t flits, std::uint8_t vc) {
        return in_west.can_push(flits, vc) ? &in_west : nullptr;
    };
    std::optional<sim::Cycle> ar_sent;
    std::optional<sim::Cycle> ar_forwarded;
    for (int cycle = 0; cycle < 32 && !ar_forwarded; ++cycle) {
        const bool ar_waiting = mgr.ar.can_pop();
        if (ni.inject_requests(mgr, map, into_west) && ar_waiting && !mgr.ar.can_pop()) {
            ar_sent = ctx.now();
        }
        ctx.step();
        for (std::uint8_t vc = 0; vc < vcs; ++vc) {
            if (out_south.can_pop(vc)) {
                EXPECT_TRUE(std::holds_alternative<axi::ArFlit>(out_south.pop(vc).flit));
                ar_forwarded = ctx.now();
            }
        }
    }
    ASSERT_TRUE(ar_sent.has_value()) << "the NI never sent the read";
    ASSERT_TRUE(ar_forwarded.has_value()) << "the read waited behind the blocked write";
    // Sent at N, at the router's input at N + 1, on the south link at N + 2.
    EXPECT_EQ(*ar_forwarded, *ar_sent + 2);
    // The W is still at the router's input: the read did not wait for it.
    EXPECT_FALSE(in_west.empty());
}

/// 2x3 mesh: managers at 0 (NW corner) and 2 (NE corner), SRAMs at 3 (fast)
/// and 5 (slow).
class MeshFixture : public ::testing::Test {
protected:
    MeshFixture() {
        ic::AddrMap map;
        map.add(0x0000, 0x10000, 3, "mem3");
        map.add(0x1'0000, 0x10000, 5, "mem5");
        mesh = std::make_unique<NocMesh>(ctx, "mesh", 2, 3, map,
                                         std::vector<noc::NodeId>{3, 5},
                                         std::vector<noc::NodeId>{0, 2},
                                         std::vector<noc::NodeId>{});
        mem3 = std::make_unique<mem::AxiMemSlave>(
            ctx, "mem3", mesh->subordinate_port(3),
            std::make_unique<mem::SramBackend>(1, 1), mem::AxiMemSlaveConfig{8, 8, 0});
        mem5 = std::make_unique<mem::AxiMemSlave>(
            ctx, "mem5", mesh->subordinate_port(5),
            std::make_unique<mem::SramBackend>(4, 4), mem::AxiMemSlaveConfig{8, 8, 0});
    }

    mem::SparseMemory& store3() {
        return static_cast<mem::SramBackend&>(mem3->backend()).store();
    }
    mem::SparseMemory& store5() {
        return static_cast<mem::SramBackend&>(mem5->backend()).store();
    }

    sim::SimContext ctx;
    std::unique_ptr<NocMesh> mesh;
    std::unique_ptr<mem::AxiMemSlave> mem3;
    std::unique_ptr<mem::AxiMemSlave> mem5;
};

TEST_F(MeshFixture, WriteAndReadAcrossTheMesh) {
    push_write_burst(ctx, mesh->manager_port(0), 1, 0x100, 4, 8, 0x2A);
    const axi::BFlit b = collect_b(ctx, mesh->manager_port(0));
    EXPECT_EQ(b.resp, axi::Resp::kOkay);
    EXPECT_EQ(store3().read_u8(0x100), 0x2A);

    axi::ManagerView mgr{mesh->manager_port(0)};
    mgr.send_ar(axi::make_ar(2, 0x100, 4, 3));
    const axi::RFlit r = collect_read_burst(ctx, mesh->manager_port(0), 4);
    EXPECT_EQ(r.id, 2U);
    // Node 0 -> node 3 is a direct neighbor hop (inject, eject, nothing
    // forwarded); the far corner at node 5 takes 0 -> 1 -> 2 -> 5, so the
    // intermediate routers must forward.
    EXPECT_EQ(mesh->total_forwarded(), 0U);
    push_write_burst(ctx, mesh->manager_port(0), 3, 0x1'0000, 1, 8, 0x5C);
    (void)collect_b(ctx, mesh->manager_port(0));
    EXPECT_EQ(store5().read_u8(0x1'0000), 0x5C);
    EXPECT_GT(mesh->total_forwarded(), 0U) << "packets must actually hop the mesh";
}

TEST_F(MeshFixture, BothManagersReachBothSubordinates) {
    push_write_burst(ctx, mesh->manager_port(0), 1, 0x0, 1, 8, 0x11);
    push_write_burst(ctx, mesh->manager_port(2), 1, 0x1'0040, 1, 8, 0x22);
    (void)collect_b(ctx, mesh->manager_port(0));
    (void)collect_b(ctx, mesh->manager_port(2));
    EXPECT_EQ(store3().read_u8(0x0), 0x11);
    EXPECT_EQ(store5().read_u8(0x1'0040), 0x22);
}

TEST_F(MeshFixture, SameIdOrderingAcrossNodesPreserved) {
    // Same ID to the slow then the fast subordinate: the NI must stall the
    // second AR until the first retires (the crossbar's same-ID rule, now
    // over XY paths of different length).
    axi::ManagerView mgr{mesh->manager_port(0)};
    mgr.send_ar(axi::make_ar(5, 0x1'0000, 1, 3)); // slow node 5, 3 hops
    ctx.step();
    mgr.send_ar(axi::make_ar(5, 0x0000, 1, 3)); // fast node 3, 2 hops
    step_until(ctx, [&] { return mgr.has_r(); });
    (void)mgr.recv_r();
    step_until(ctx, [&] { return mgr.has_r(); });
    (void)mgr.recv_r();
    SUCCEED() << "both completed in order without protocol assertions firing";
}

TEST_F(MeshFixture, DmaCopyOverMesh) {
    for (axi::Addr a = 0; a < 0x1000; a += 8) { store3().write_u64(a, a ^ 0xABCD); }
    traffic::DmaConfig dcfg;
    dcfg.burst_beats = 16;
    traffic::DmaEngine dma{ctx, "dma", mesh->manager_port(2), dcfg};
    dma.push_job(traffic::DmaJob{0x0, 0x1'0000, 0x1000, false});
    step_until(ctx, [&] { return dma.idle(); }, 100000);
    for (axi::Addr a = 0; a < 0x1000; a += 8) {
        ASSERT_EQ(store5().read_u64(0x1'0000 + a), a ^ 0xABCDU);
    }
}

TEST_F(MeshFixture, RealmUnitRegulatesOverMesh) {
    // REALM in front of manager 2, budgeted: the same credit mechanism must
    // hold on a mesh (interconnect-agnostic claim of the paper).
    axi::AxiChannel mgr_up{ctx, "up"};
    rt::RealmUnitConfig rcfg;
    rcfg.fragment_beats = 4;
    rt::RealmUnit realm{ctx, "realm", mgr_up, mesh->manager_port(2), rcfg};
    realm.set_region(0, rt::RegionConfig{0x0, 0x2'0000, 256, 500});

    traffic::DmaConfig dcfg;
    dcfg.burst_beats = 16;
    traffic::DmaEngine dma{ctx, "dma", mgr_up, dcfg};
    dma.push_job(traffic::DmaJob{0x0, 0x1'0000, 0x2000, true});
    const sim::Cycle horizon = 30000;
    ctx.run(horizon);
    const double bw = static_cast<double>(realm.mr().region(0).bytes_total) /
                      static_cast<double>(horizon);
    EXPECT_LE(bw, 256.0 / 500.0 * 1.4) << "budget must bind over the mesh too";
    EXPECT_GT(realm.mr().region(0).depletion_events, 5U);
    EXPECT_GT(dma.chunks_completed(), 2U);
}

TEST_F(MeshFixture, DefaultTransportIsCreditedAndBookkept) {
    // The fixture constructs the mesh with the default flow config: the
    // credited transport with a live end-to-end credit book (same default
    // as the ring — the flow-control layer is fabric-independent), routed
    // XY unless a policy is selected.
    ASSERT_NE(mesh->credit_book(), nullptr);
    EXPECT_EQ(mesh->routing(), RoutingPolicy::kXY);
    mesh->check_flow_invariants();
}

TEST_F(MeshFixture, CreditBookIsOneSubordinateByManagerTable) {
    // One pool per (subordinate, manager) pair and direction, all built by
    // the constructor: the pass-through nodes 1 and 4 get none, and traffic
    // never adds one, so the sharded tick phase never mutates the book's
    // structure.
    const CreditBook& book = *mesh->credit_book();
    EXPECT_EQ(book.subordinates(), (std::vector<NodeId>{3, 5}));
    EXPECT_EQ(book.managers(), (std::vector<NodeId>{0, 2}));
    EXPECT_EQ(book.pools(), 2U * 2U);
    push_write_burst(ctx, mesh->manager_port(0), 1, 0x100, 4, 8, 0x2A);
    (void)collect_b(ctx, mesh->manager_port(0));
    push_write_burst(ctx, mesh->manager_port(2), 3, 0x1'0000, 1, 8, 0x5C);
    (void)collect_b(ctx, mesh->manager_port(2));
    EXPECT_EQ(book.pools(), 2U * 2U);
    mesh->check_flow_invariants();
}

TEST_F(MeshFixture, CreditBookRejectsPairsOutsideTheTable) {
    const CreditBook& book = *mesh->credit_book();
    EXPECT_NO_THROW((void)book.req(3, 0));
    EXPECT_NO_THROW((void)book.rsp(0, 5));
    // No subordinate end: requests only target, responses only leave, the
    // subordinate nodes 3 and 5.
    EXPECT_THROW((void)book.req(0, 3), sim::ContractViolation);
    EXPECT_THROW((void)book.req(1, 2), sim::ContractViolation);
    EXPECT_THROW((void)book.rsp(5, 0), sim::ContractViolation);
    EXPECT_THROW((void)book.rsp(2, 1), sim::ContractViolation);
    // No manager end: requests only leave, responses only target, the
    // manager nodes 0 and 2.
    EXPECT_THROW((void)book.req(3, 1), sim::ContractViolation);
    EXPECT_THROW((void)book.req(5, 4), sim::ContractViolation);
    EXPECT_THROW((void)book.rsp(1, 3), sim::ContractViolation);
    EXPECT_THROW((void)book.rsp(4, 5), sim::ContractViolation);
    // Node ids past the fabric, on either end.
    const NodeId n = mesh->num_nodes();
    EXPECT_THROW((void)book.req(n, 0), sim::ContractViolation);
    EXPECT_THROW((void)book.req(3, n), sim::ContractViolation);
    EXPECT_THROW((void)book.rsp(n, 5), sim::ContractViolation);
    EXPECT_THROW((void)book.rsp(0, n), sim::ContractViolation);
}

TEST_F(MeshFixture, ManagerPortExistsOnlyAtManagerNodes) {
    EXPECT_NO_THROW((void)mesh->manager_port(0));
    EXPECT_NO_THROW((void)mesh->manager_port(2));
    for (const NodeId node : {1, 3, 4, 5}) {
        EXPECT_THROW((void)mesh->manager_port(node), sim::ContractViolation) << node;
    }
    EXPECT_THROW((void)mesh->manager_port(mesh->num_nodes()), sim::ContractViolation);
}

TEST(MeshSubordinates, DuplicatedSubordinateNodeIsRejected) {
    // Listed twice, node 3 would get a second mux and staging lanes: the
    // memory slave would attach to one set while the NI ejects into the
    // other, and a write would never complete.
    sim::SimContext ctx;
    ic::AddrMap map;
    map.add(0x0000, 0x10000, 3, "mem3");
    EXPECT_THROW((NocMesh{ctx, "mesh", 2, 3, map, std::vector<NodeId>{3, 3},
                          std::vector<NodeId>{0}, std::vector<NodeId>{}}),
                 sim::ContractViolation);
}

TEST(MeshManagers, DuplicatedManagerNodeIsRejected) {
    // Listed twice, node 0 would take two manager slots: two egress lanes
    // per subordinate, one of which its NI never fills.
    sim::SimContext ctx;
    ic::AddrMap map;
    map.add(0x0000, 0x10000, 3, "mem3");
    EXPECT_THROW((NocMesh{ctx, "mesh", 2, 3, map, std::vector<NodeId>{3},
                          std::vector<NodeId>{0, 2, 0}, std::vector<NodeId>{}}),
                 sim::ContractViolation);
}

TEST_F(MeshFixture, BackpressureDoesNotDeadlock) {
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
    traffic::CoreModel c0{ctx, "c0", mesh->manager_port(0), wl0};
    traffic::CoreModel c1{ctx, "c1", mesh->manager_port(2), wl1};
    ASSERT_TRUE(ctx.run_until([&] { return c0.done() && c1.done(); }, 1'000'000));
    EXPECT_EQ(c0.loads_retired() + c0.stores_retired(), 200U);
    EXPECT_EQ(c1.loads_retired() + c1.stores_retired(), 200U);
}

// --- Topology subsystem: meshes built from ScenarioConfigs -------------------

using scenario::RingRole;
using scenario::ScenarioConfig;
using scenario::ScenarioResult;
using scenario::Sweep;
using scenario::SweepPoint;

TEST(MeshRoles, CanonicalLayoutMatchesTheRingSpread) {
    const auto mesh_specs = scenario::make_mesh_roles(2, 4, 2, 2);
    const auto ring_specs = scenario::make_ring_roles(8, 2, 2);
    ASSERT_EQ(mesh_specs.size(), 8U);
    for (std::size_t i = 0; i < mesh_specs.size(); ++i) {
        EXPECT_EQ(mesh_specs[i].role, ring_specs[i].role)
            << "cells must be comparable across fabrics (node " << i << ")";
    }
    EXPECT_EQ(mesh_specs[0].role, RingRole::kVictim);
}

TEST(MeshRegistry, SameDosCellsOnAllThreeFabrics) {
    const Sweep ring = scenario::make_sweep("ring-dos-matrix");
    const Sweep mesh = scenario::make_sweep("mesh-dos-matrix");
    const Sweep xbar = scenario::make_sweep("xbar-dos-matrix");
    // 36 attack cells + 4 per-defense no-attack baselines for detector FP
    // scoring.
    ASSERT_EQ(ring.points.size(), 40U);
    ASSERT_EQ(mesh.points.size(), ring.points.size());
    ASSERT_EQ(xbar.points.size(), ring.points.size());
    for (std::size_t i = 0; i < ring.points.size(); ++i) {
        EXPECT_EQ(mesh.points[i].label, ring.points[i].label);
        EXPECT_EQ(xbar.points[i].label, ring.points[i].label);
        EXPECT_TRUE(
            std::holds_alternative<scenario::MeshTopologyConfig>(mesh.points[i].config.fabric));
        EXPECT_TRUE(std::holds_alternative<soc::SocConfig>(xbar.points[i].config.fabric));
        // Identical traffic knobs per cell: same attackers, same victim.
        EXPECT_EQ(mesh.points[i].config.interference.size(),
                  ring.points[i].config.interference.size());
        EXPECT_EQ(mesh.points[i].config.victim.stream.bytes,
                  ring.points[i].config.victim.stream.bytes);
    }
    // 24 nodes on both NoC fabrics.
    EXPECT_EQ(std::get<scenario::MeshTopologyConfig>(mesh.points[0].config.fabric).num_nodes(),
              24U);
    EXPECT_EQ(std::get<scenario::RingTopologyConfig>(ring.points[0].config.fabric).num_nodes,
              24);
}

TEST(MeshRegistry, KnowsTheMeshSweeps) {
    for (const char* name : {"mesh-contention", "mesh-dos-matrix", "mesh-dos-smoke",
                             "xbar-dos-matrix", "xbar-dos-smoke"}) {
        ASSERT_TRUE(scenario::has_sweep(name)) << name;
        const Sweep sweep = scenario::make_sweep(name);
        EXPECT_FALSE(sweep.points.empty()) << name;
    }
}

/// Small contended mesh point from the registry (2x4, smoke cells).
ScenarioConfig small_mesh_point(std::size_t index) {
    Sweep sweep = scenario::make_sweep("mesh-dos-smoke");
    return sweep.points.at(index).config;
}

TEST(MeshTopology, ScenarioRunsEndToEnd) {
    const ScenarioResult res = run_scenario(small_mesh_point(0), "mesh");
    EXPECT_TRUE(res.boot_ok);
    EXPECT_FALSE(res.timed_out);
    EXPECT_GT(res.ops, 0U);
    EXPECT_GT(res.load_lat_mean, 0.0);
    EXPECT_GT(res.fabric_hops, 0U) << "traffic must actually cross mesh hops";
    EXPECT_GT(res.dma_bytes, 0U) << "the interference DMA must run";
}

TEST(MeshTopology, RealmPlacementRegulatesTheAttacker) {
    // Smoke points 0/1 are the same 1-attacker hog cell without/with the
    // budget defense; regulation must deplete credits and restore the
    // victim's latency on the mesh exactly as on the ring.
    const ScenarioResult none = run_scenario(small_mesh_point(0), "none");
    const ScenarioResult budget = run_scenario(small_mesh_point(1), "budget");
    EXPECT_EQ(budget.ops, none.ops);
    EXPECT_GT(budget.dma_depletions, 0U) << "budget must bind over the mesh";
    EXPECT_LT(budget.dma_read_bw, none.dma_read_bw / 2.0);
    EXPECT_LT(budget.load_lat_mean, none.load_lat_mean);
}

TEST(MeshSchedulerEquivalence, ActivityMatchesTickAllBitForBit) {
    // Acceptance gate: the activity scheduler must match kTickAll on a mesh
    // scenario — MeshRouter, the egress muxes, and the memory slaves all
    // honour their idle contracts. The W-stall cell stresses reservation
    // stalls at the merge routers.
    ScenarioConfig cfg = small_mesh_point(2); // 1atk/wstall/none
    cfg.scheduler = sim::Scheduler::kTickAll;
    const ScenarioResult naive = scenario::run_scenario(cfg);
    cfg.scheduler = sim::Scheduler::kActivity;
    const ScenarioResult fast = scenario::run_scenario(cfg);

    ASSERT_FALSE(naive.timed_out);
    EXPECT_TRUE(test::same_result(naive, fast, FieldKind::kKernel));

    EXPECT_EQ(naive.ticks_skipped, 0U);
    EXPECT_GT(fast.ticks_skipped, 0U) << "idle mesh routers must be skipped";
    EXPECT_LT(fast.ticks_executed, naive.ticks_executed);
}

TEST(MeshSchedulerEquivalence, LargeIdleMeshFastForwards) {
    // A 4x6 mesh whose traffic drains early: the idle tail must
    // fast-forward once every router, mux, and memory declares idle.
    ScenarioConfig cfg = small_mesh_point(0);
    auto& mesh = std::get<scenario::MeshTopologyConfig>(cfg.fabric);
    mesh.rows = 4;
    mesh.cols = 6;
    mesh.nodes = scenario::make_mesh_roles(4, 6, 1, 2);
    cfg.interference[0].loop = false; // finite copy, then quiescence
    cfg.cooldown_cycles = 500'000;
    const ScenarioResult res = scenario::run_scenario(cfg, "idle-mesh");
    EXPECT_FALSE(res.timed_out);
    EXPECT_GT(res.fast_forwarded_cycles, 400'000U)
        << "a fully idle mesh must cost (almost) nothing";
}

TEST(MeshRunner, MatrixPointThreadInvariantOn24Nodes) {
    // Thread-count invariance on the 24-node mesh: a DoS-matrix point must
    // produce identical results through the runner at 1 and N threads.
    Sweep matrix = scenario::make_sweep("mesh-dos-matrix");
    Sweep sweep;
    sweep.name = matrix.name;
    sweep.points = {matrix.points[0], matrix.points[2]}; // hog: none + budget
    for (SweepPoint& p : sweep.points) {
        p.config.victim.stream.repeat = 1; // keep the test quick
    }
    const auto serial =
        scenario::ScenarioRunner{scenario::RunnerOptions{.threads = 1}}.run(sweep);
    const auto parallel =
        scenario::ScenarioRunner{scenario::RunnerOptions{.threads = 4}}.run(sweep);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(sweep.points[i].label);
        EXPECT_TRUE(test::same_result(serial[i], parallel[i], FieldKind::kHost));
        EXPECT_GT(serial[i].fabric_hops, 0U);
    }
}

// --- Routing policies at scenario scale --------------------------------------

/// The named cell of `mesh-routing-dos-smoke` under one policy.
ScenarioConfig routing_smoke_cell(RoutingPolicy policy, const std::string& cell) {
    Sweep sweep = scenario::make_sweep("mesh-routing-dos-smoke");
    const std::string label = cell + "/" + to_string(policy);
    for (const SweepPoint& p : sweep.points) {
        if (p.label == label) { return p.config; }
    }
    ADD_FAILURE() << "no cell " << label;
    return {};
}

TEST(MeshRoutingRegistry, RoutingSweepsCoverEveryPolicyWithMatchingCells) {
    const Sweep matrix = scenario::make_sweep("mesh-routing-dos-matrix");
    const Sweep base = scenario::make_sweep("mesh-dos-matrix");
    ASSERT_EQ(matrix.points.size(), base.points.size() * 4);
    for (std::size_t k = 0; k < kNumRoutingPolicies; ++k) {
        const RoutingPolicy policy = kPolicies[k];
        for (std::size_t i = 0; i < base.points.size(); ++i) {
            const SweepPoint& p = matrix.points[k * base.points.size() + i];
            EXPECT_EQ(p.label,
                      base.points[i].label + "/" + to_string(policy));
            EXPECT_EQ(std::get<scenario::MeshTopologyConfig>(p.config.fabric).routing, policy);
            // Identical traffic knobs per cell: only the policy varies.
            EXPECT_EQ(p.config.interference.size(),
                      base.points[i].config.interference.size());
        }
    }
    for (const char* name :
         {"mesh-routing-dos-smoke", "mesh-routing-contention"}) {
        ASSERT_TRUE(scenario::has_sweep(name)) << name;
        EXPECT_FALSE(scenario::make_sweep(name).points.empty()) << name;
    }
}

TEST(MeshRoutingPolicies, WorstSmokeCellCompletesUnderEveryPolicy) {
    // The acceptance gate in miniature: the heaviest smoke cell (two
    // stalling writers, no regulation, write buffers stripped) must finish
    // without deadlock or timeout under all four policies — the reorder
    // stash closes every multi-path gap, and the per-class VCs keep O1TURN
    // deadlock-free.
    for (const RoutingPolicy policy : kPolicies) {
        SCOPED_TRACE(to_string(policy));
        const ScenarioResult res = run_scenario(
            routing_smoke_cell(policy, "2atk/wstall/none"), to_string(policy));
        EXPECT_TRUE(res.boot_ok);
        EXPECT_FALSE(res.timed_out);
        EXPECT_GT(res.ops, 0U);
        EXPECT_GT(res.fabric_hops, 0U);
    }
}

TEST(MeshRoutingPolicies, BudgetDefenseHoldsUnderEveryPolicy) {
    // Regulation is routing-agnostic: under each policy the budgeted cell
    // must restore the victim relative to the undefended one.
    for (const RoutingPolicy policy : kPolicies) {
        SCOPED_TRACE(to_string(policy));
        const ScenarioResult none = run_scenario(
            routing_smoke_cell(policy, "2atk/hog/none"), "none");
        const ScenarioResult budget = run_scenario(
            routing_smoke_cell(policy, "2atk/hog/budget"), "budget");
        EXPECT_EQ(budget.ops, none.ops);
        EXPECT_LT(budget.load_lat_mean, none.load_lat_mean);
    }
}

TEST(MeshRoutingPolicies, SameIdOrderingHoldsUnderEveryPolicy) {
    // Same ID to the slow then the fast subordinate under each policy: the
    // NI ordering rule plus the ejection-side reorder stash must keep the
    // responses in order even when the paths differ (O1TURN / west-first).
    for (const RoutingPolicy policy : kPolicies) {
        SCOPED_TRACE(to_string(policy));
        sim::SimContext ctx;
        ic::AddrMap map;
        map.add(0x0000, 0x10000, 3, "mem3");
        map.add(0x1'0000, 0x10000, 5, "mem5");
        NocMesh mesh{ctx, "mesh", 2, 3, map, std::vector<noc::NodeId>{3, 5},
                     std::vector<noc::NodeId>{0, 2}, std::vector<noc::NodeId>{},
                     NocFlowConfig{}, policy};
        mem::AxiMemSlave mem3{ctx, "mem3", mesh.subordinate_port(3),
                              std::make_unique<mem::SramBackend>(1, 1),
                              mem::AxiMemSlaveConfig{8, 8, 0}};
        mem::AxiMemSlave mem5{ctx, "mem5", mesh.subordinate_port(5),
                              std::make_unique<mem::SramBackend>(4, 4),
                              mem::AxiMemSlaveConfig{8, 8, 0}};
        axi::ManagerView mgr{mesh.manager_port(0)};
        mgr.send_ar(axi::make_ar(5, 0x1'0000, 1, 3)); // slow node 5
        ctx.step();
        mgr.send_ar(axi::make_ar(5, 0x0000, 1, 3)); // fast node 3
        step_until(ctx, [&] { return mgr.has_r(); });
        (void)mgr.recv_r();
        step_until(ctx, [&] { return mgr.has_r(); });
        (void)mgr.recv_r();
        mesh.check_flow_invariants();
    }
}

TEST(MeshRoutingPolicies, DmaCopyPreservesDataUnderEveryPolicy) {
    // End-to-end data integrity per policy: a DMA copy across the mesh
    // must land byte-exact — this is what the reorder stash protects (an
    // in-network overtake would otherwise scramble the AW/W lane pairing).
    for (const RoutingPolicy policy : kPolicies) {
        SCOPED_TRACE(to_string(policy));
        sim::SimContext ctx;
        ic::AddrMap map;
        map.add(0x0000, 0x10000, 3, "mem3");
        map.add(0x1'0000, 0x10000, 5, "mem5");
        NocMesh mesh{ctx, "mesh", 2, 3, map, std::vector<noc::NodeId>{3, 5},
                     std::vector<noc::NodeId>{0, 2}, std::vector<noc::NodeId>{},
                     NocFlowConfig{}, policy};
        mem::AxiMemSlave mem3{ctx, "mem3", mesh.subordinate_port(3),
                              std::make_unique<mem::SramBackend>(1, 1),
                              mem::AxiMemSlaveConfig{8, 8, 0}};
        mem::AxiMemSlave mem5{ctx, "mem5", mesh.subordinate_port(5),
                              std::make_unique<mem::SramBackend>(4, 4),
                              mem::AxiMemSlaveConfig{8, 8, 0}};
        auto& store3 = static_cast<mem::SramBackend&>(mem3.backend()).store();
        auto& store5 = static_cast<mem::SramBackend&>(mem5.backend()).store();
        for (axi::Addr a = 0; a < 0x1000; a += 8) { store3.write_u64(a, a ^ 0xABCD); }
        traffic::DmaConfig dcfg;
        dcfg.burst_beats = 16;
        traffic::DmaEngine dma{ctx, "dma", mesh.manager_port(2), dcfg};
        dma.push_job(traffic::DmaJob{0x0, 0x1'0000, 0x1000, false});
        step_until(ctx, [&] { return dma.idle(); }, 200000);
        for (axi::Addr a = 0; a < 0x1000; a += 8) {
            ASSERT_EQ(store5.read_u64(0x1'0000 + a), a ^ 0xABCDU)
                << "corruption at offset " << a;
        }
        mesh.check_flow_invariants();
    }
}

TEST(MeshRoutingSchedulerEquivalence, ActivityMatchesTickAllPerPolicy) {
    // The idle/wake contract must hold under every policy — including the
    // reorder-stash rule (never sleep on a stashed response) and the
    // two-VC O1TURN links.
    for (const RoutingPolicy policy : kPolicies) {
        SCOPED_TRACE(to_string(policy));
        ScenarioConfig cfg = routing_smoke_cell(policy, "1atk/wstall/none");
        cfg.scheduler = sim::Scheduler::kTickAll;
        const ScenarioResult naive = scenario::run_scenario(cfg);
        cfg.scheduler = sim::Scheduler::kActivity;
        const ScenarioResult fast = scenario::run_scenario(cfg);
        ASSERT_FALSE(naive.timed_out);
        EXPECT_TRUE(test::same_result(naive, fast, FieldKind::kKernel));
        EXPECT_EQ(naive.ticks_skipped, 0U);
        EXPECT_GT(fast.ticks_skipped, 0U) << "idle routers must be skipped";
    }
}

} // namespace
} // namespace realm::noc
