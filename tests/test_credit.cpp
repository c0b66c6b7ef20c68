/// Tests for the credited NoC transport (noc/credit.hpp): wormhole link
/// serialization and VC bounds (multi-VC links included), end-to-end
/// credit pools with delayed credit returns (credits riding the response
/// network, conservation asserted on every transition), whole-fabric
/// credit conservation asserted every cycle under the worst DoS-matrix
/// cell, flow-control resume (a point with delayed credit returns never
/// reuses an instant-return dump), and scheduler equivalence under
/// deliberately tight credits.
#include "noc/credit.hpp"
#include "noc/mesh.hpp"
#include "noc/ring.hpp"
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

#include <cstdio>
#include <memory>
#include <vector>

namespace realm::noc {
namespace {

using scenario::FieldKind;
using scenario::ScenarioConfig;
using scenario::ScenarioResult;
using scenario::Sweep;
using scenario::SweepPoint;

// --- CreditPool --------------------------------------------------------------

TEST(CreditPool, TakeReleaseConservation) {
    CreditPool pool{8};
    EXPECT_EQ(pool.available(), 8U);
    EXPECT_EQ(pool.in_flight(), 0U);
    pool.check_conserved();

    EXPECT_TRUE(pool.can_take(8));
    EXPECT_FALSE(pool.can_take(9));
    pool.take(5);
    EXPECT_EQ(pool.available(), 3U);
    EXPECT_EQ(pool.in_flight(), 5U);
    pool.check_conserved();

    pool.release(2);
    EXPECT_EQ(pool.available(), 5U);
    EXPECT_EQ(pool.in_flight(), 3U);
    pool.check_conserved();

    pool.release(3);
    EXPECT_EQ(pool.available(), 8U);
    pool.check_conserved();
}

TEST(CreditPool, OverTakeAndOverReleaseAreContractViolations) {
    CreditPool pool{4};
    EXPECT_THROW(pool.take(5), sim::ContractViolation);
    pool.take(4);
    EXPECT_THROW(pool.release(5), sim::ContractViolation);
}

TEST(NocFlowConfig, ValidationRejectsUnderSizedBuffers) {
    NocFlowConfig fc;
    fc.vc_depth = fc.flits_per_packet - 1; // cannot hold one worm
    EXPECT_THROW(fc.validate(), sim::ContractViolation);
    fc = NocFlowConfig{};
    fc.e2e_credits = fc.flits_per_packet; // AW header would starve its data
    EXPECT_THROW(fc.validate(), sim::ContractViolation);
    fc = NocFlowConfig{};
    fc.flits_per_packet = 256; // would truncate NocPacket::flits (8-bit)
    fc.vc_depth = 512;
    fc.e2e_credits = 1024;
    EXPECT_THROW(fc.validate(), sim::ContractViolation);
}

TEST(CreditPool, DelayedReturnsRideTheResponseNetwork) {
    // release_at keeps the credits in flight until the ready cycle:
    // conservation holds through the whole pending window, and settle
    // matures exactly the returns whose cycle has arrived.
    CreditPool pool{8};
    pool.take(6);
    pool.release_at(/*ready_at=*/10, 4);
    EXPECT_EQ(pool.available(), 2U);
    EXPECT_EQ(pool.in_flight(), 6U) << "pending returns still count in flight";
    EXPECT_EQ(pool.pending_returns(), 4U);
    pool.check_conserved();

    pool.settle(9);
    EXPECT_EQ(pool.available(), 2U) << "not matured yet";
    pool.settle(10);
    EXPECT_EQ(pool.available(), 6U);
    EXPECT_EQ(pool.pending_returns(), 0U);
    pool.check_conserved();

    // Releasing more than the worm-held share (in flight minus pending) is
    // a leak and trips the contract.
    pool.release_at(20, 2);
    EXPECT_THROW(pool.release(1), sim::ContractViolation);
}

// --- NocLink -----------------------------------------------------------------

NocPacket worm_of(std::uint32_t flits) {
    NocPacket pkt;
    pkt.flits = static_cast<std::uint8_t>(flits);
    pkt.flit = axi::RFlit{};
    return pkt;
}

TEST(NocLink, WormSerializesOneFlitPerCycle) {
    sim::SimContext ctx;
    NocFlowConfig fc; // credited, 4 flits per worm, vc_depth 8
    std::vector<NocLink::Slot> slots(NocLink::slots_needed(fc, 1));
    NocLink link{ctx, "l", fc, slots};

    ASSERT_TRUE(link.can_push(4));
    link.push(worm_of(4));
    // The channel is busy until the tail flit leaves, 4 cycles later —
    // even though the VC still has 4 free flit slots.
    EXPECT_FALSE(link.can_push(1));
    for (int c = 0; c < 3; ++c) {
        ctx.step();
        EXPECT_FALSE(link.can_push(1)) << "cycle " << c;
    }
    ctx.step();
    EXPECT_TRUE(link.can_push(4));
    // Header latency is still one cycle: the packet was poppable long
    // before the serialization window closed (wormhole, not
    // store-and-forward).
    EXPECT_TRUE(link.can_pop());
}

TEST(NocLink, VcOccupancyIsBoundedAndAsserted) {
    sim::SimContext ctx;
    NocFlowConfig fc;
    fc.vc_depth = 8;
    std::vector<NocLink::Slot> slots(NocLink::slots_needed(fc, 1));
    NocLink link{ctx, "l", fc, slots};

    link.push(worm_of(4));
    for (int c = 0; c < 4; ++c) { ctx.step(); }
    link.push(worm_of(4)); // 8 flits buffered: at the bound
    EXPECT_EQ(link.buffered_flits(), 8U);
    for (int c = 0; c < 4; ++c) { ctx.step(); }
    EXPECT_FALSE(link.can_push(1)) << "VC full: no free flit slot";
    EXPECT_NO_THROW(link.check_bounded());
    // Draining one worm frees its flits.
    (void)link.pop();
    EXPECT_EQ(link.buffered_flits(), 4U);
    EXPECT_TRUE(link.can_push(4));
    EXPECT_EQ(link.peak_buffered_flits(), 8U);
}

TEST(NocLink, VirtualChannelsHavePrivateBuffersAndASharedChannel) {
    // The O1TURN deadlock argument rests on exactly this: a full VC 0 must
    // not take buffer space VC 1 needs, while the physical channel's
    // serialization window is shared (a time bound, not a held resource).
    sim::SimContext ctx;
    NocFlowConfig fc;
    fc.vc_depth = 4;
    std::vector<NocLink::Slot> slots(NocLink::slots_needed(fc, 2));
    NocLink link{ctx, "l", fc, slots, /*num_vcs=*/2};

    NocPacket w0 = worm_of(4);
    link.push(w0); // fills VC 0 and opens a 4-cycle serialization window
    EXPECT_FALSE(link.can_push(4, 0)) << "VC 0 full";
    EXPECT_FALSE(link.can_push(4, 1)) << "channel busy serializing the worm";
    for (int c = 0; c < 4; ++c) { ctx.step(); }
    EXPECT_FALSE(link.can_push(4, 0)) << "VC 0 still full";
    EXPECT_TRUE(link.can_push(4, 1)) << "VC 1 buffers are private";
    NocPacket w1 = worm_of(4);
    w1.vc = 1;
    link.push(w1);
    EXPECT_EQ(link.buffered_flits(0), 4U);
    EXPECT_EQ(link.buffered_flits(1), 4U);
    EXPECT_NO_THROW(link.check_bounded());
    // Per-VC pop: draining VC 1 frees only VC 1.
    for (int c = 0; c < 4; ++c) { ctx.step(); }
    ASSERT_TRUE(link.can_pop(1));
    (void)link.pop(1);
    EXPECT_EQ(link.buffered_flits(1), 0U);
    EXPECT_EQ(link.buffered_flits(0), 4U);
}

// --- Whole-fabric conservation under the worst DoS cell ----------------------

/// Returns the config of the named cell of a registered sweep.
ScenarioConfig cell_config(const std::string& sweep_name, const std::string& label) {
    Sweep sweep = scenario::make_sweep(sweep_name);
    for (const SweepPoint& p : sweep.points) {
        if (p.label == label) { return p.config; }
    }
    ADD_FAILURE() << sweep_name << " has no cell " << label;
    return {};
}

/// Drives one NoC scenario config by hand, as `run_scenario` does — fabric
/// via `make_topology`, REALM units booted from the config's plans,
/// interference DMAs, and the stream victim after the warm-up — so a test
/// can act after *every* cycle, not just sample. Runs `cycles` cycles, or
/// until the victim is done; `each_cycle(topo, now)` runs after every one.
template <typename EachCycle>
void drive_cell(const ScenarioConfig& cfg, sim::Cycle cycles, EachCycle&& each_cycle) {
    sim::SimContext ctx;
    auto topo = scenario::make_topology(ctx, cfg);
    ASSERT_TRUE(topo->boot(cfg.boot_plans));
    if (cfg.throttle_dsa) { topo->set_interference_throttle(true); }
    std::vector<std::unique_ptr<traffic::DmaEngine>> dmas;
    for (std::size_t i = 0; i < cfg.interference.size(); ++i) {
        const scenario::InterferenceConfig& irq = cfg.interference[i];
        dmas.push_back(std::make_unique<traffic::DmaEngine>(
            ctx, "atk" + std::to_string(i), topo->interference_port(i), irq.dma));
        dmas.back()->push_job(traffic::DmaJob{irq.src, irq.dst, irq.bytes, irq.loop});
    }
    traffic::StreamWorkload victim{cfg.victim.stream};
    std::unique_ptr<traffic::CoreModel> core;
    for (sim::Cycle c = 0; c < cycles && !(core && core->done()); ++c) {
        if (c == cfg.warmup_cycles) {
            core = std::make_unique<traffic::CoreModel>(ctx, "victim", topo->victim_port(),
                                                        victim);
        }
        ctx.step();
        each_cycle(*topo, ctx.now());
        if (::testing::Test::HasFatalFailure()) { return; }
    }
    EXPECT_GT(topo->fabric_hops(), 0U) << "traffic must actually cross the fabric";
}

/// Asserts the fabric's flow-control invariants after every cycle of
/// `drive_cell`.
void step_and_check_invariants(const ScenarioConfig& cfg, sim::Cycle cycles) {
    drive_cell(cfg, cycles, [](const scenario::TopologyHandle& topo, sim::Cycle now) {
        ASSERT_NO_THROW(topo.check_flow_invariants()) << "cycle " << now;
    });
}

TEST(CreditConservation, HoldsEveryCycleUnderTheWorstMeshDosCell) {
    // 9atk/wstall/none is the heaviest matrix cell: nine stalling writers,
    // no regulation, attackers' write buffers stripped. Total credits in
    // flight + held == configured pool, staged NI flits within the pool,
    // and every VC within vc_depth — asserted each of 15k cycles.
    step_and_check_invariants(cell_config("mesh-dos-matrix", "9atk/wstall/none"),
                              15000);
}

TEST(CreditConservation, HoldsEveryCycleWithUnreservedResponsesOnEveryMeshPolicy) {
    // An unregulated overdraft attacker's 64-beat reads exceed its whole
    // response pool, so they go out unreserved; on the 4x6 mesh under
    // west-first and O1TURN some of their responses arrive out of order and
    // wait in the reorder stash (more flits than the pool has in flight on
    // 79 pair-cycles), which the invariant bounds by the pool's in-flight
    // credits plus the unreserved flits owed.
    for (const RoutingPolicy policy : {RoutingPolicy::kWestFirst, RoutingPolicy::kO1Turn}) {
        SCOPED_TRACE(to_string(policy));
        ScenarioConfig cfg = cell_config("mesh-dos-matrix", "1atk/overdraft/none");
        std::get<scenario::MeshTopologyConfig>(cfg.fabric).routing = policy;
        step_and_check_invariants(cfg, 15000);
    }
}

TEST(CreditConservation, HoldsEveryCycleOnTheTightCreditRing) {
    // The tight-credit smoke (vc_depth = one worm, e2e_credits = 8) keeps
    // the fabric permanently credit-limited — the regime where a release
    // miscount would surface fastest.
    step_and_check_invariants(cell_config("ring-credit-dos-smoke", "2atk/hog/none"),
                              15000);
}

// --- Response reservation: no head-of-line hold at the memory ---------------

TEST(ResponseReservation, RegulatedManagersNeverHoldTheMemoryResponseOutput) {
    // A manager reserves its responses before it asks, so a regulated
    // manager never has more responses owed than its egress lane holds,
    // and the memory node's mux never holds its one R/B output for a full
    // lane. Unregulated 256-beat hogs read more than their whole pool,
    // unreserved, and still do.
    for (const char* sweep : {"mesh-dos-smoke", "ring-dos-smoke"}) {
        for (const SweepPoint& p : scenario::make_sweep(sweep).points) {
            SCOPED_TRACE(std::string{sweep} + " " + p.label);
            std::uint64_t holds = 0;
            drive_cell(p.config, p.config.max_cycles,
                       [&](const scenario::TopologyHandle& topo, sim::Cycle) {
                           holds = topo.fabric_rsp_holds();
                       });
            if (!p.config.boot_plans.empty()) {
                EXPECT_EQ(holds, 0U);
            } else if (!p.config.interference.empty() &&
                       p.label.find("/hog/") != std::string::npos) {
                EXPECT_GT(holds, 0U);
            }
        }
    }
}

// --- Delayed credit returns: A/B, conservation and resume -------------------

TEST(CreditReturnDelay, DelayedReturnsCompleteAndBoundSoloThroughput) {
    // A contended cell with credits riding the response network for 16
    // cycles still completes (no leak, no deadlock). Note the *victim* may
    // even speed up there — slow credit round trips throttle the
    // credit-hungry attackers hardest — so the monotonicity check runs on
    // the uncontended cell, where the victim is the only credit consumer
    // and a slower loop can only cost cycles.
    ScenarioConfig contended = cell_config("ring-dos-smoke", "2atk/hog/none");
    scenario::noc_config(contended.fabric)->credit_return_delay = 16;
    const ScenarioResult delayed = run_scenario(contended, "delay16");
    EXPECT_TRUE(delayed.boot_ok);
    EXPECT_FALSE(delayed.timed_out);
    EXPECT_GT(delayed.ops, 0U);
    EXPECT_GT(delayed.fabric_hops, 0U);

    ScenarioConfig solo = cell_config("ring-contention", "N=6 solo");
    const ScenarioResult solo_instant = run_scenario(solo, "solo-delay0");
    scenario::noc_config(solo.fabric)->credit_return_delay = 16;
    const ScenarioResult solo_delayed = run_scenario(solo, "solo-delay16");
    ASSERT_FALSE(solo_instant.timed_out);
    ASSERT_FALSE(solo_delayed.timed_out);
    EXPECT_GE(solo_delayed.run_cycles, solo_instant.run_cycles)
        << "slower credit round trips cannot speed an uncontended victim up";
    // Default delay 0 is the historical behaviour: bit-identical numbers.
    ScenarioConfig again = cell_config("ring-contention", "N=6 solo");
    const ScenarioResult solo_repeat = run_scenario(again, "solo-again");
    EXPECT_EQ(solo_repeat.run_cycles, solo_instant.run_cycles);
    EXPECT_EQ(solo_repeat.load_lat_max, solo_instant.load_lat_max);
}

TEST(CreditReturnDelay, ConservationHoldsEveryCycleUnderDelayedReturns) {
    // The satellite contract: with credit_return_delay the pending returns
    // are part of the in-flight count, and whole-fabric conservation is
    // asserted on every cycle of a contended run (not sampled).
    ScenarioConfig cfg = cell_config("mesh-dos-smoke", "2atk/wstall/none");
    scenario::noc_config(cfg.fabric)->credit_return_delay = 8;
    step_and_check_invariants(cfg, 10000);
}

TEST(FlowControlResume, DelayedPointIsNeverServedFromAnInstantDump) {
    // `--json PATH --resume` keys on config_hash, which mixes the
    // credit-return delay: a dump produced with instantaneous returns
    // must not satisfy a delayed point, and vice versa — a resume alias
    // here would silently report the wrong round-trip numbers.
    const std::string path = test::scratch_path("flow_ab_resume.json");
    Sweep instant;
    instant.name = "flow-ab";
    ScenarioConfig cfg = cell_config("ring-dos-smoke", "1atk/hog/budget");
    cfg.victim.stream.repeat = 1; // keep the test quick
    instant.points.push_back({"cell", cfg});

    const scenario::ScenarioRunner runner{scenario::RunnerOptions{.threads = 1}};
    ASSERT_TRUE(scenario::write_json_file(path, instant, runner.run(instant)));

    Sweep delayed = instant;
    scenario::noc_config(delayed.points[0].config.fabric)->credit_return_delay = 8;
    std::size_t reused = ~std::size_t{0};
    (void)runner.run_resumed(delayed, path, &reused);
    EXPECT_EQ(reused, 0U) << "delayed point aliased an instant-return dump";

    // The matching config *is* reused — resume still works.
    (void)runner.run_resumed(instant, path, &reused);
    EXPECT_EQ(reused, 1U);
    std::remove(path.c_str());
}

// --- Scheduler equivalence under tight credits -------------------------------

void expect_bit_identical(const ScenarioResult& naive, const ScenarioResult& fast) {
    ASSERT_FALSE(naive.timed_out);
    EXPECT_TRUE(test::same_result(naive, fast, FieldKind::kKernel));
    EXPECT_EQ(naive.ticks_skipped, 0U);
    EXPECT_GT(fast.ticks_skipped, 0U) << "idle components must be skipped";
}

TEST(CreditSchedulerEquivalence, TightCreditRingMatchesTickAllBitForBit) {
    // Credit waits and serialization windows must honour the idle/wake
    // contract too: a node waiting for credits holds a flit somewhere it
    // drains from and therefore never sleeps through the release.
    ScenarioConfig cfg = cell_config("ring-credit-dos-smoke", "1atk/wstall/none");
    cfg.scheduler = sim::Scheduler::kTickAll;
    const ScenarioResult naive = scenario::run_scenario(cfg);
    cfg.scheduler = sim::Scheduler::kActivity;
    const ScenarioResult fast = scenario::run_scenario(cfg);
    expect_bit_identical(naive, fast);
}

TEST(CreditSchedulerEquivalence, TightCreditMeshMatchesTickAllBitForBit) {
    ScenarioConfig cfg = cell_config("mesh-credit-dos-smoke", "2atk/hog/none");
    cfg.scheduler = sim::Scheduler::kTickAll;
    const ScenarioResult naive = scenario::run_scenario(cfg);
    cfg.scheduler = sim::Scheduler::kActivity;
    const ScenarioResult fast = scenario::run_scenario(cfg);
    expect_bit_identical(naive, fast);
}

} // namespace
} // namespace realm::noc
