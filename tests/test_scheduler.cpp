/// Unit tests for the activity-aware scheduler: idle/wake edge cases,
/// fast-forward semantics, and bit-identical equivalence with the naive
/// tick-all loop on the Figure 6 SoC topology.
#include "axi/checker.hpp"
#include "axi/trace.hpp"
#include "mem/axi_mem_slave.hpp"
#include "mon/txn_monitor.hpp"
#include "noc/routing.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/context.hpp"
#include "sim/link.hpp"
#include "traffic/dma.hpp"

#include "same_result.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <variant>

namespace realm {
namespace {

using scenario::FieldKind;
using sim::Component;
using sim::Cycle;
using sim::Link;
using sim::Scheduler;
using sim::SimContext;

// --- Idle / wake primitives --------------------------------------------------

/// Ticks once, then sleeps forever; counts evaluations.
class SleepyComponent : public Component {
public:
    using Component::Component;
    void tick() override {
        ++ticks;
        idle_forever();
    }
    int ticks = 0;
};

TEST(Scheduler, IdleComponentIsSkipped) {
    SimContext ctx;
    ctx.set_scheduler(Scheduler::kActivity);
    SleepyComponent sleepy{ctx, "sleepy"};
    ctx.step(); // evaluates once, declares idle
    const std::uint64_t executed_after_first = ctx.ticks_executed();
    ctx.step();
    ctx.step();
    EXPECT_EQ(sleepy.ticks, 1);
    EXPECT_EQ(ctx.ticks_executed(), executed_after_first);
    EXPECT_EQ(ctx.ticks_skipped(), 2U);
}

TEST(Scheduler, TickAllNeverSkips) {
    SimContext ctx;
    ctx.set_scheduler(Scheduler::kTickAll);
    SleepyComponent sleepy{ctx, "sleepy"};
    ctx.run(5);
    EXPECT_EQ(sleepy.ticks, 5) << "tick-all must ignore idle declarations";
    EXPECT_EQ(ctx.ticks_skipped(), 0U);
}

/// Consumes from a link; sleeps whenever the link is empty.
class LinkConsumer : public Component {
public:
    LinkConsumer(SimContext& ctx, std::string name, Link<int>& link)
        : Component{ctx, std::move(name)}, link_{&link} {
        link.set_wake_on_push(this);
    }
    void tick() override {
        ++ticks;
        if (link_->can_pop()) { values.push_back(link_->pop()); }
        if (link_->empty()) { idle_forever(); }
    }
    Link<int>* link_;
    std::vector<int> values;
    int ticks = 0;
};

TEST(Scheduler, WakeOnLinkPushDeliversFlit) {
    SimContext ctx;
    ctx.set_scheduler(Scheduler::kActivity);
    Link<int> link{ctx, 2, "l"};
    LinkConsumer consumer{ctx, "consumer", link};
    ctx.run(10); // consumer ticks once, then sleeps
    EXPECT_EQ(consumer.ticks, 1);

    link.push(42); // push from outside any tick: wakes the consumer
    ctx.run(10);
    ASSERT_EQ(consumer.values.size(), 1U);
    EXPECT_EQ(consumer.values[0], 42);
    // Registered link: pushed at cycle 10, poppable (and consumed) at 11.
    EXPECT_EQ(consumer.ticks, 2);
}

TEST(Scheduler, WakeFromEarlierProducerInSameCycle) {
    SimContext ctx;
    ctx.set_scheduler(Scheduler::kActivity);
    Link<int> link{ctx, 4, "l"};

    /// Producer registered *before* the consumer: pushes one flit at a
    /// scheduled cycle, then sleeps.
    class Producer : public Component {
    public:
        Producer(SimContext& ctx, Link<int>& link) : Component{ctx, "prod"}, link_{&link} {}
        void tick() override {
            if (now() == 5) { link_->push(7); }
            idle_until(now() == 5 ? sim::kNoCycle : 5);
        }
        Link<int>* link_;
    } producer{ctx, link};
    LinkConsumer consumer{ctx, "consumer", link};

    ctx.run(20);
    ASSERT_EQ(consumer.values.size(), 1U);
    EXPECT_EQ(consumer.values[0], 7);
}

// --- Fast-forward ------------------------------------------------------------

/// Sleeps in fixed-length intervals, recording each evaluation cycle.
class TimerComponent : public Component {
public:
    TimerComponent(SimContext& ctx, Cycle interval)
        : Component{ctx, "timer"}, interval_{interval} {}
    void tick() override {
        fired_at.push_back(now());
        idle_until(now() + interval_);
    }
    Cycle interval_;
    std::vector<Cycle> fired_at;
};

TEST(Scheduler, FastForwardJumpsToNextWake) {
    SimContext ctx;
    ctx.set_scheduler(Scheduler::kActivity);
    TimerComponent timer{ctx, 1000};
    ctx.run(3001);
    EXPECT_EQ(ctx.now(), 3001U);
    EXPECT_EQ(timer.fired_at, (std::vector<Cycle>{0, 1000, 2000, 3000}));
    EXPECT_GT(ctx.fast_forwarded_cycles(), 2900U);
}

TEST(Scheduler, FastForwardNeverOvershootsRunBoundary) {
    SimContext ctx;
    ctx.set_scheduler(Scheduler::kActivity);
    TimerComponent timer{ctx, 1'000'000};
    ctx.run(500); // all idle until 1M, but the run ends at 500
    EXPECT_EQ(ctx.now(), 500U);
}

TEST(Scheduler, RunUntilHonorsDeadlineAcrossFastForward) {
    SimContext ctx;
    ctx.set_scheduler(Scheduler::kActivity);
    TimerComponent timer{ctx, 1'000'000};
    // The predicate never fires; the deadline must land exactly.
    EXPECT_FALSE(ctx.run_until([] { return false; }, 777));
    EXPECT_EQ(ctx.now(), 777U);
}

TEST(Scheduler, RunUntilStopsOnPredicateAfterJump) {
    SimContext ctx;
    ctx.set_scheduler(Scheduler::kActivity);
    TimerComponent timer{ctx, 100};
    EXPECT_TRUE(ctx.run_until([&] { return timer.fired_at.size() >= 3; }, 10'000));
    EXPECT_EQ(timer.fired_at.size(), 3U);
    EXPECT_LE(ctx.now(), 201U);
}

TEST(Scheduler, AllAsleepForeverFastForwardsToRunEnd) {
    SimContext ctx;
    ctx.set_scheduler(Scheduler::kActivity);
    SleepyComponent sleepy{ctx, "sleepy"};
    ctx.run(1'000'000);
    EXPECT_EQ(ctx.now(), 1'000'000U);
    EXPECT_EQ(sleepy.ticks, 1);
    EXPECT_EQ(ctx.fast_forwarded_cycles(), 999'999U);
}

// --- Equivalence on the Figure 6 topology ------------------------------------

scenario::ScenarioConfig small_fig6_point(Scheduler scheduler) {
    // A Figure 6b budget point, shrunk (smaller Susan image) to keep the
    // test fast while exercising the full SoC: REALM units, splitter,
    // write buffer, M&R credits with a short period, LLC, crossbar, DMA.
    scenario::Sweep sweep = scenario::make_sweep("fig6b");
    scenario::ScenarioConfig cfg = sweep.points.back().config; // 1/5 budget
    cfg.victim.susan.width = 32;
    cfg.victim.susan.height = 24;
    cfg.scheduler = scheduler;
    return cfg;
}

TEST(SchedulerEquivalence, Fig6TopologyBitIdentical) {
    const scenario::ScenarioResult naive =
        scenario::run_scenario(small_fig6_point(Scheduler::kTickAll));
    const scenario::ScenarioResult fast =
        scenario::run_scenario(small_fig6_point(Scheduler::kActivity));

    ASSERT_TRUE(naive.boot_ok);
    ASSERT_FALSE(naive.timed_out);
    EXPECT_GT(naive.ops, 0U);
    EXPECT_TRUE(test::same_result(naive, fast, FieldKind::kKernel));

    // And the activity kernel must actually have saved work. (No full
    // fast-forward here: the looping interference DMA never goes idle;
    // whole-system jumps are covered by the idle-tail unit tests above.)
    EXPECT_EQ(naive.ticks_skipped, 0U);
    EXPECT_GT(fast.ticks_skipped, 0U);
    EXPECT_LT(fast.ticks_executed, naive.ticks_executed);
}

TEST(SchedulerEquivalence, InstrumentedChainBitIdenticalAndSleeps) {
    // Checker, monitor, and tracer opt into the idle contract: a fully
    // instrumented hop (DMA -> checker -> tracer -> SRAM, with a monitor
    // tapping the tracer's input) must agree bit for bit across schedulers
    // and still fast-forward the quiescent tail — observability must not
    // cost idle cycles.
    struct Run {
        std::uint64_t bytes_written = 0;
        std::uint64_t mon_reads = 0;
        std::uint64_t mon_writes = 0;
        std::uint64_t read_lat_count = 0;
        double read_lat_mean = 0;
        std::uint64_t trace_total = 0;
        std::uint64_t checked_writes = 0;
        std::uint64_t checked_reads = 0;
        std::uint64_t ticks_executed = 0;
        Cycle fast_forwarded = 0;
    };
    const auto run_one = [](Scheduler scheduler) {
        SimContext ctx;
        ctx.set_scheduler(scheduler);
        axi::AxiChannel a{ctx, "a"};
        axi::AxiChannel b{ctx, "b"};
        axi::AxiChannel c{ctx, "c"};
        axi::AxiChecker checker{ctx, "chk", a, b};
        axi::AxiTracer tracer{ctx, "trace", b, c};
        mon::TxnMonitor monitor{ctx, "mon", b}; // after b's consumer, the tracer
        mem::AxiMemSlave slave{ctx, "mem", c, std::make_unique<mem::SramBackend>(1, 1),
                               mem::AxiMemSlaveConfig{8, 8, 0}};
        traffic::DmaConfig dcfg;
        dcfg.burst_beats = 32;
        traffic::DmaEngine dma{ctx, "dma", a, dcfg};
        dma.push_job(traffic::DmaJob{0x0, 0x8000, 0x2000, false});
        ctx.run(200'000); // finite copy plus a long idle tail
        return Run{dma.bytes_written(),          monitor.ar_count(),
                   monitor.aw_count(),           monitor.read_sketch().count(),
                   monitor.read_sketch().mean(), tracer.total_recorded(),
                   checker.completed_writes(),   checker.completed_reads(),
                   ctx.ticks_executed(),         ctx.fast_forwarded_cycles()};
    };
    const Run naive = run_one(Scheduler::kTickAll);
    const Run fast = run_one(Scheduler::kActivity);
    EXPECT_EQ(naive.bytes_written, 0x2000U);
    EXPECT_EQ(fast.bytes_written, naive.bytes_written);
    EXPECT_EQ(fast.mon_reads, naive.mon_reads);
    EXPECT_EQ(fast.mon_writes, naive.mon_writes);
    EXPECT_EQ(fast.read_lat_count, naive.read_lat_count);
    EXPECT_EQ(fast.read_lat_mean, naive.read_lat_mean);
    EXPECT_EQ(fast.trace_total, naive.trace_total);
    EXPECT_EQ(fast.checked_writes, naive.checked_writes);
    EXPECT_EQ(fast.checked_reads, naive.checked_reads);
    EXPECT_GT(naive.trace_total, 0U) << "the tracer must have seen traffic";
    EXPECT_LT(fast.ticks_executed, naive.ticks_executed / 10)
        << "the instrumented pipeline must sleep through the idle tail";
    EXPECT_GT(fast.fast_forwarded, 150'000U);
}

TEST(SchedulerEquivalence, DosAttackTopologyBitIdentical) {
    // The write-stall DoS scenario stresses different paths (write buffer
    // off, cut-through W reservations, no boot script).
    scenario::Sweep sweep = scenario::make_sweep("ablation-dos");
    scenario::ScenarioConfig cfg = sweep.points[0].config;

    cfg.scheduler = Scheduler::kTickAll;
    const scenario::ScenarioResult naive = scenario::run_scenario(cfg);
    cfg.scheduler = Scheduler::kActivity;
    const scenario::ScenarioResult fast = scenario::run_scenario(cfg);

    ASSERT_FALSE(naive.timed_out);
    EXPECT_TRUE(test::same_result(naive, fast, FieldKind::kKernel));
}

// --- Sharded-kernel equivalence ----------------------------------------------

/// A contended mesh point (3x4 hog from mesh-contention), shrunk to keep the
/// matrix of (policy x shard count) runs fast, with real worker threads
/// forced so the concurrent barrier path runs even on single-core hosts.
scenario::ScenarioConfig
small_mesh_point(noc::RoutingPolicy routing, unsigned shards,
                 std::uint32_t link_latency = 1) {
    scenario::Sweep sweep = scenario::make_sweep("mesh-contention");
    scenario::ScenarioConfig cfg = sweep.points.at(4).config; // 3x4 hog
    cfg.victim.stream.bytes = 0x400;
    auto& mesh = std::get<scenario::MeshTopologyConfig>(cfg.fabric);
    mesh.routing = routing;
    mesh.link_latency = link_latency;
    cfg.shards = shards;
    cfg.shard_workers = shards > 1 ? 2 : 0;
    return cfg;
}

TEST(ShardedKernel, MeshBitIdenticalAcrossShardCountsAndPolicies) {
    for (const noc::RoutingPolicy routing :
         {noc::RoutingPolicy::kXY, noc::RoutingPolicy::kYX,
          noc::RoutingPolicy::kO1Turn, noc::RoutingPolicy::kWestFirst}) {
        const scenario::ScenarioResult ref =
            scenario::run_scenario(small_mesh_point(routing, 1));
        ASSERT_FALSE(ref.timed_out);
        ASSERT_GT(ref.ops, 0U);
        ASSERT_GT(ref.fabric_hops, 0U);
        for (const unsigned shards : {2U, 4U}) {
            const scenario::ScenarioResult sharded =
                scenario::run_scenario(small_mesh_point(routing, shards));
            SCOPED_TRACE(testing::Message()
                         << "routing=" << noc::to_string(routing)
                         << " shards=" << shards);
            EXPECT_TRUE(test::same_result(ref, sharded, FieldKind::kKernel));
        }
    }
}

TEST(ShardedKernel, MatchesTickAllScheduler) {
    // Transitivity anchor: the sharded activity kernel must agree with the
    // unsharded naive tick-all loop, not merely with itself.
    scenario::ScenarioConfig cfg =
        small_mesh_point(noc::RoutingPolicy::kO1Turn, 1);
    cfg.scheduler = Scheduler::kTickAll;
    const scenario::ScenarioResult naive = scenario::run_scenario(cfg);
    const scenario::ScenarioResult sharded =
        scenario::run_scenario(small_mesh_point(noc::RoutingPolicy::kO1Turn, 4));
    ASSERT_FALSE(naive.timed_out);
    EXPECT_TRUE(test::same_result(naive, sharded, FieldKind::kKernel));
}

TEST(ShardedKernel, OddWidthMeshBitIdentical) {
    // 3x5: 5 columns over 2 and 4 shards exercises uneven column stripes
    // (including a shard owning two columns and another owning one).
    scenario::Sweep sweep = scenario::make_sweep("mesh-contention");
    scenario::ScenarioConfig cfg = sweep.points.at(1).config; // 2x3 hog
    auto& mesh = std::get<scenario::MeshTopologyConfig>(cfg.fabric);
    mesh.rows = 3;
    mesh.cols = 5;
    mesh.nodes = scenario::make_mesh_roles(3, 5, 2, 2);
    mesh.routing = noc::RoutingPolicy::kO1Turn;
    cfg.victim.stream.bytes = 0x400;
    const scenario::ScenarioResult ref = scenario::run_scenario(cfg);
    ASSERT_FALSE(ref.timed_out);
    ASSERT_GT(ref.fabric_hops, 0U);
    for (const unsigned shards : {2U, 4U}) {
        scenario::ScenarioConfig s = cfg;
        s.shards = shards;
        s.shard_workers = 2;
        SCOPED_TRACE(testing::Message() << "shards=" << shards);
        EXPECT_TRUE(test::same_result(ref, scenario::run_scenario(s), FieldKind::kKernel));
    }
}

TEST(ShardedKernel, LookaheadBatchedBitIdenticalAcrossShardsAndPolicies) {
    // link_latency 4 turns every barrier epoch into a 4-cycle batch; the
    // batched kernel must agree bit for bit with the single-shard run (which
    // batches on the same config-pure cadence) for every policy and shard
    // count, including shard counts above the column count.
    for (const noc::RoutingPolicy routing :
         {noc::RoutingPolicy::kXY, noc::RoutingPolicy::kYX,
          noc::RoutingPolicy::kO1Turn, noc::RoutingPolicy::kWestFirst}) {
        const scenario::ScenarioResult ref =
            scenario::run_scenario(small_mesh_point(routing, 1, 4));
        ASSERT_FALSE(ref.timed_out);
        ASSERT_GT(ref.fabric_hops, 0U);
        for (const unsigned shards : {2U, 4U, 8U}) {
            const scenario::ScenarioResult sharded =
                scenario::run_scenario(small_mesh_point(routing, shards, 4));
            SCOPED_TRACE(testing::Message()
                         << "routing=" << noc::to_string(routing)
                         << " shards=" << shards << " link_latency=4");
            EXPECT_TRUE(test::same_result(ref, sharded, FieldKind::kKernel));
        }
    }
}

TEST(ShardedKernel, LookaheadBatchingMatchesTickAllScheduler) {
    // Transitivity anchor at link_latency 2: the batched activity kernel
    // must agree with the naive tick-all loop under the same link model.
    scenario::ScenarioConfig cfg =
        small_mesh_point(noc::RoutingPolicy::kO1Turn, 1, 2);
    cfg.scheduler = Scheduler::kTickAll;
    const scenario::ScenarioResult naive = scenario::run_scenario(cfg);
    const scenario::ScenarioResult sharded = scenario::run_scenario(
        small_mesh_point(noc::RoutingPolicy::kO1Turn, 4, 2));
    ASSERT_FALSE(naive.timed_out);
    EXPECT_TRUE(test::same_result(naive, sharded, FieldKind::kKernel));
}

TEST(ShardedKernel, ScatteredTileMapBitIdentical) {
    // An explicit tile map that puts every pair of neighbouring tiles on
    // different shards, so every mesh link crosses a shard edge; results
    // must not move, at every link latency. The column stripes give the
    // 3x4 mesh at most 4 busy shards, so at 8 shards every shard ticking
    // proves `tile_shards` reached the mesh.
    for (const std::uint32_t latency : {1U, 2U, 4U}) {
        const scenario::ScenarioResult ref = scenario::run_scenario(
            small_mesh_point(noc::RoutingPolicy::kXY, 1, latency));
        ASSERT_FALSE(ref.timed_out);
        for (const unsigned shards : {2U, 8U}) {
            SCOPED_TRACE(testing::Message() << "link_latency=" << latency
                                            << " shards=" << shards);
            scenario::ScenarioConfig cfg =
                small_mesh_point(noc::RoutingPolicy::kXY, shards, latency);
            auto& mesh = std::get<scenario::MeshTopologyConfig>(cfg.fabric);
            const unsigned rows = mesh.rows;
            const unsigned cols = mesh.cols;
            ASSERT_EQ(rows * cols, 12U);
            // Row-major node n = r * cols + c goes to (n + r) % shards: east
            // neighbours differ by 1 and south neighbours by cols + 1 = 5, so
            // neither shares a shard at 2 or 8 shards.
            std::vector<bool> used(shards, false);
            for (unsigned r = 0; r < rows; ++r) {
                for (unsigned c = 0; c < cols; ++c) {
                    mesh.tile_shards.push_back((r * cols + c + r) % shards);
                    used[mesh.tile_shards.back()] = true;
                }
            }
            for (unsigned n = 0; n < rows * cols; ++n) {
                if (n % cols + 1 < cols) {
                    ASSERT_NE(mesh.tile_shards[n], mesh.tile_shards[n + 1]) << n;
                }
                if (n + cols < rows * cols) {
                    ASSERT_NE(mesh.tile_shards[n], mesh.tile_shards[n + cols]) << n;
                }
            }
            ASSERT_EQ(static_cast<unsigned>(std::count(used.begin(), used.end(), true)),
                      shards);

            const scenario::ScenarioResult sharded = scenario::run_scenario(cfg);
            EXPECT_TRUE(test::same_result(ref, sharded, FieldKind::kKernel));
            if (shards == 8) {
                ASSERT_EQ(sharded.shard_ticks_executed.size(), 8U);
                for (unsigned s = 0; s < shards; ++s) {
                    EXPECT_GT(sharded.shard_ticks_executed[s], 0U) << "shard " << s;
                }
            }
        }
    }
}

TEST(ShardedKernel, LinkLatencyIsSemantic) {
    // Deeper links must actually change the simulated latency picture (the
    // knob is hashed); this guards against the pipeline silently collapsing
    // back to one cycle. Compare uncontended runs — with hogs active a slower
    // link also throttles the attacker, so victim latency is not monotonic.
    auto solo = [](std::uint32_t latency) {
        scenario::ScenarioConfig cfg =
            small_mesh_point(noc::RoutingPolicy::kXY, 1, latency);
        cfg.interference.clear();
        return scenario::run_scenario(cfg);
    };
    const scenario::ScenarioResult l1 = solo(1);
    const scenario::ScenarioResult l4 = solo(4);
    ASSERT_FALSE(l1.timed_out);
    ASSERT_FALSE(l4.timed_out);
    EXPECT_GT(l4.load_lat_mean, l1.load_lat_mean)
        << "4-cycle links must lengthen uncontended load latency";
    EXPECT_GT(l4.run_cycles, l1.run_cycles);
}

TEST(ShardedKernel, RepeatedShardedRunsAreDeterministic) {
    const scenario::ScenarioConfig cfg =
        small_mesh_point(noc::RoutingPolicy::kWestFirst, 4);
    const scenario::ScenarioResult first = scenario::run_scenario(cfg);
    const scenario::ScenarioResult second = scenario::run_scenario(cfg);
    ASSERT_FALSE(first.timed_out);
    EXPECT_TRUE(test::same_result(first, second, FieldKind::kHost));
}

TEST(ShardedKernel, ProfiledRunMatchesPlainRun) {
    // The profiled instantiation of the tick walk only adds timing: under
    // both schedulers and at one and two shards, every field but host
    // timing (tick counters included) equals the plain run's. A monitored
    // smoke cell keeps the eight runs cheap.
    const scenario::Sweep smoke = scenario::make_sweep("mesh-dos-smoke");
    const auto cell = std::find_if(smoke.points.begin(), smoke.points.end(),
                                   [](const scenario::SweepPoint& p) {
                                       return p.label == "1atk/hog/budget";
                                   });
    ASSERT_NE(cell, smoke.points.end());
    for (const Scheduler scheduler : {Scheduler::kActivity, Scheduler::kTickAll}) {
        for (const unsigned shards : {1U, 2U}) {
            SCOPED_TRACE(testing::Message()
                         << "tick-all=" << (scheduler == Scheduler::kTickAll)
                         << " shards=" << shards);
            scenario::ScenarioConfig cfg = cell->config;
            cfg.monitors.enabled = true;
            cfg.scheduler = scheduler;
            cfg.shards = shards;
            cfg.shard_workers = shards;
            const scenario::ScenarioResult plain = scenario::run_scenario(cfg);
            cfg.profile = true;
            const scenario::ScenarioResult profiled = scenario::run_scenario(cfg);
            ASSERT_FALSE(plain.timed_out);
            EXPECT_TRUE(plain.profile.empty());
            EXPECT_FALSE(profiled.profile.empty());
            EXPECT_TRUE(test::same_result(plain, profiled, FieldKind::kHost));
        }
    }
}

TEST(ShardedKernel, SetShardsAfterAComponentRegistersThrows) {
    // Shards are fixed before the design is built: components take their
    // shard tag at registration, and nothing repartitions a live context.
    SimContext ctx;
    ctx.set_shards(4);
    const sim::ShardScope scope{ctx, 3};
    SleepyComponent sleepy{ctx, "sleepy"};
    EXPECT_THROW(ctx.set_shards(2), sim::ContractViolation);
    EXPECT_EQ(ctx.shards(), 4U);
    EXPECT_EQ(sleepy.shard(), 3U);

    SimContext stepped;
    stepped.step();
    EXPECT_THROW(stepped.set_shards(2), sim::ContractViolation);
}

TEST(ShardedKernel, PerShardCountersPartitionTheTotals) {
    const scenario::ScenarioResult r =
        scenario::run_scenario(small_mesh_point(noc::RoutingPolicy::kXY, 4));
    ASSERT_EQ(r.shard_ticks_executed.size(), 4U);
    ASSERT_EQ(r.shard_ticks_skipped.size(), 4U);
    std::uint64_t executed = 0;
    std::uint64_t skipped = 0;
    unsigned busy_shards = 0;
    for (unsigned s = 0; s < 4; ++s) {
        executed += r.shard_ticks_executed[s];
        skipped += r.shard_ticks_skipped[s];
        busy_shards += r.shard_ticks_executed[s] > 0 ? 1U : 0U;
    }
    EXPECT_EQ(executed, r.ticks_executed);
    EXPECT_EQ(skipped, r.ticks_skipped);
    // The 3x4 mesh stripes over min(4, cols) = 4 shards; every stripe hosts
    // ticking components (routers at minimum), so no shard sits empty.
    EXPECT_EQ(busy_shards, 4U);
}

} // namespace
} // namespace realm
