/// Unit tests for workloads, the Susan kernel/trace, the core model, and the
/// DMA engine.
#include "axi/checker.hpp"
#include "mem/axi_mem_slave.hpp"
#include "mem/backend.hpp"
#include "scenario/config_fields.hpp"
#include "traffic/core.hpp"
#include "traffic/dma.hpp"
#include "traffic/susan.hpp"
#include "traffic/workload.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <tuple>

namespace realm::traffic {
namespace {

using test::step_until;

TEST(StreamWorkload, SweepsRangeInOrder) {
    StreamWorkload wl{{.base = 0x100, .bytes = 64, .op_bytes = 8, .stride_bytes = 8}};
    std::vector<axi::Addr> addrs;
    while (auto op = wl.next()) { addrs.push_back(op->addr); }
    ASSERT_EQ(addrs.size(), 8U);
    EXPECT_EQ(addrs.front(), 0x100U);
    EXPECT_EQ(addrs.back(), 0x138U);
}

TEST(StreamWorkload, StoreRatioRespected) {
    StreamWorkload wl{
        {.base = 0, .bytes = 1280, .op_bytes = 8, .stride_bytes = 8, .store_ratio16 = 4}};
    int stores = 0;
    int total = 0;
    while (auto op = wl.next()) {
        stores += op->kind == MemOp::Kind::kStore ? 1 : 0;
        ++total;
    }
    EXPECT_EQ(total, 160);
    EXPECT_EQ(stores, 40); // 4 of every 16
}

TEST(RandomWorkload, DeterministicPerSeed) {
    RandomWorkload a{{.num_ops = 100, .seed = 5}};
    RandomWorkload b{{.num_ops = 100, .seed = 5}};
    for (int i = 0; i < 100; ++i) {
        const auto oa = a.next();
        const auto ob = b.next();
        ASSERT_TRUE(oa && ob);
        EXPECT_EQ(oa->addr, ob->addr);
        EXPECT_EQ(oa->kind, ob->kind);
    }
}

// --- Susan ------------------------------------------------------------------

TEST(Susan, ReferenceSmoothingReducesNoiseVariance) {
    const std::uint32_t w = 48;
    const std::uint32_t h = 36;
    const auto img = SusanTraceGenerator::make_image(w, h, 7);
    const auto out = SusanTraceGenerator::smooth_reference(img, w, h, 2, 20);

    // Compare local variance (mean squared difference of horizontal
    // neighbours) in a flat region away from the synthetic rectangles —
    // USAN deliberately preserves the rectangle edges, so variance there
    // must NOT be used to judge noise removal.
    const auto local_var = [&](const std::vector<std::uint8_t>& im) {
        double acc = 0;
        int n = 0;
        for (std::uint32_t y = 4; y < h / 4 - 2; ++y) {
            for (std::uint32_t x = 4; x + 1 < w / 2; ++x) {
                const double d = static_cast<double>(im[y * w + x]) -
                                 static_cast<double>(im[y * w + x + 1]);
                acc += d * d;
                ++n;
            }
        }
        return acc / n;
    };
    EXPECT_LT(local_var(out), local_var(img) * 0.5);
}

TEST(Susan, EdgePreservedBetterThanMeanFilter) {
    // USAN smoothing must not blur across the bright rectangle's edge as a
    // plain box filter would: check the edge contrast survives.
    const std::uint32_t w = 48;
    const std::uint32_t h = 36;
    auto img = SusanTraceGenerator::make_image(w, h, 7);
    const auto out = SusanTraceGenerator::smooth_reference(img, w, h, 2, 20);
    // The rectangle spans x in (w/5, w/2), y in (h/4, h/2): sample across
    // its left edge.
    const std::uint32_t y = h / 3;
    const std::uint32_t x_in = w / 5 + 2;
    const std::uint32_t x_out = w / 5 - 2;
    const int contrast_out =
        std::abs(int{out[y * w + x_in]} - int{out[y * w + x_out]});
    EXPECT_GT(contrast_out, 60) << "edge must survive USAN smoothing";
}

TEST(Susan, TraceIsMemoryIntense) {
    SusanConfig cfg;
    cfg.width = 48;
    cfg.height = 36;
    SusanTraceGenerator gen{cfg};
    ASSERT_GT(gen.ops().size(), 100U);
    // Compute gaps must be small: Susan is the paper's memory-bound pick.
    std::uint64_t compute = 0;
    for (const MemOp& op : gen.ops()) { compute += op.compute_cycles; }
    const double compute_per_op =
        static_cast<double>(compute) / static_cast<double>(gen.ops().size());
    EXPECT_LT(compute_per_op, 30.0);
    EXPECT_GT(gen.emitted_stores(), 0U);
    EXPECT_GT(gen.filtered_loads(), gen.emitted_loads())
        << "the L1 filter should absorb most neighbourhood re-reads";
}

TEST(Susan, TraceMatchesKernelOutput) {
    SusanConfig cfg;
    cfg.width = 40;
    cfg.height = 30;
    SusanTraceGenerator gen{cfg};
    const auto ref = SusanTraceGenerator::smooth_reference(gen.input_image(), cfg.width,
                                                           cfg.height, cfg.mask_radius,
                                                           cfg.threshold);
    EXPECT_EQ(gen.output_image(), ref)
        << "trace generation must execute the same arithmetic as the reference";
}

TEST(Susan, OpsCapRespected) {
    SusanConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.max_ops = 500;
    SusanTraceGenerator gen{cfg};
    EXPECT_LE(gen.ops().size(), 500U);
}

TEST(Susan, SharedTraceFollowsEveryConfigField) {
    // The per-thread memo is keyed by the whole config: after a change to
    // any one field it must hand out that config's own trace, and while the
    // config stays equal, the same generator.
    SusanConfig base;
    base.width = 24;
    base.height = 18;
    const std::vector<std::function<void(SusanConfig&)>> mutations = {
        [](SusanConfig& c) { c.width = 26; },
        [](SusanConfig& c) { c.height = 20; },
        [](SusanConfig& c) { c.mask_radius = 1; },
        [](SusanConfig& c) { c.threshold = 30; },
        [](SusanConfig& c) { c.image_base += 0x1000; },
        [](SusanConfig& c) { c.out_base += 0x1000; },
        [](SusanConfig& c) { c.lut_base += 0x1000; },
        [](SusanConfig& c) { c.filter_cache_bytes = 256; },
        [](SusanConfig& c) { c.filter_line_bytes = 16; },
        [](SusanConfig& c) { c.compute_quarter_cycles_per_tap = 3; },
        [](SusanConfig& c) { c.filtered_load_quarter_cycles = 2; },
        [](SusanConfig& c) { c.image_seed += 1; },
        [](SusanConfig& c) { c.max_ops = 100; },
    };
    // A member without a table entry does not build; one with an entry
    // fails here until it gets a mutation above.
    ASSERT_EQ(mutations.size(), std::tuple_size_v<decltype(scenario::kConfigFields<SusanConfig>)>);
    for (std::size_t i = 0; i < mutations.size(); ++i) {
        SCOPED_TRACE("mutation " + std::to_string(i));
        SusanConfig c = base;
        mutations[i](c);
        ASSERT_FALSE(c == base);
        const auto before = shared_susan_trace(base);
        const auto trace = shared_susan_trace(c);
        EXPECT_TRUE(trace->config() == c);
        EXPECT_NE(trace, before);
        const SusanTraceGenerator fresh{c};
        EXPECT_EQ(trace->ops(), fresh.ops());
        EXPECT_EQ(trace->input_image(), fresh.input_image());
        EXPECT_EQ(trace->output_image(), fresh.output_image());
        EXPECT_EQ(trace->total_taps(), fresh.total_taps());
        EXPECT_EQ(trace->filtered_loads(), fresh.filtered_loads());
        EXPECT_EQ(trace->emitted_loads(), fresh.emitted_loads());
        EXPECT_EQ(trace->emitted_stores(), fresh.emitted_stores());
        const SusanConfig equal = c;
        EXPECT_EQ(shared_susan_trace(equal), trace);
    }
}

// --- CoreModel ---------------------------------------------------------------

class CoreFixture : public ::testing::Test {
protected:
    CoreFixture() {
        slave = std::make_unique<mem::AxiMemSlave>(
            ctx, "mem", ch, std::make_unique<mem::SramBackend>(1, 1),
            mem::AxiMemSlaveConfig{8, 8, 0});
    }
    sim::SimContext ctx;
    axi::AxiChannel ch{ctx, "core"};
    std::unique_ptr<mem::AxiMemSlave> slave;
};

TEST_F(CoreFixture, RunsStreamWorkloadToCompletion) {
    StreamWorkload wl{{.base = 0, .bytes = 512, .op_bytes = 8, .stride_bytes = 8,
                       .store_ratio16 = 4}};
    CoreModel core{ctx, "core", ch, wl};
    step_until(ctx, [&] { return core.done(); }, 5000);
    EXPECT_EQ(core.loads_retired() + core.stores_retired(), 64U);
    EXPECT_GT(core.load_latency().count(), 0U);
    EXPECT_GT(core.load_latency().mean(), 2.0);
}

TEST_F(CoreFixture, BlockingLoadsSerializeOnLatency) {
    // With 1-cycle SRAM and blocking loads, run time scales with the
    // per-load round trip, not the op count alone.
    StreamWorkload wl{{.base = 0, .bytes = 160, .op_bytes = 8, .stride_bytes = 8}};
    CoreModel core{ctx, "core", ch, wl};
    step_until(ctx, [&] { return core.done(); }, 5000);
    const double per_load = static_cast<double>(core.finish_cycle()) / 20.0;
    EXPECT_GE(per_load, 3.0) << "blocking loads cannot complete in one cycle";
    EXPECT_GT(core.load_stall_cycles(), 20U);
}

TEST_F(CoreFixture, ComputeCyclesAddRunTime) {
    StreamWorkload fast{{.base = 0, .bytes = 80, .op_bytes = 8, .stride_bytes = 8}};
    CoreModel core_fast{ctx, "core", ch, fast};
    step_until(ctx, [&] { return core_fast.done(); }, 5000);
    const sim::Cycle t_fast = core_fast.finish_cycle();

    // The same SoC, built fresh, runs the stream with compute between ops.
    sim::SimContext slow_ctx;
    axi::AxiChannel slow_ch{slow_ctx, "core"};
    mem::AxiMemSlave slow_mem{slow_ctx, "mem", slow_ch, std::make_unique<mem::SramBackend>(1, 1),
                              mem::AxiMemSlaveConfig{8, 8, 0}};
    StreamWorkload slow{{.base = 0, .bytes = 80, .op_bytes = 8, .stride_bytes = 8,
                         .compute_cycles = 10}};
    CoreModel core_slow{slow_ctx, "core", slow_ch, slow};
    step_until(slow_ctx, [&] { return core_slow.done(); }, 5000);
    EXPECT_GT(core_slow.finish_cycle(), t_fast + 80)
        << "10 compute cycles per op must lengthen execution";
    EXPECT_EQ(core_slow.compute_cycles(), 100U);
}

TEST_F(CoreFixture, StoreBufferAbsorbsStores) {
    // Stores only: with a 4-deep buffer the core retires them without
    // blocking on each response.
    StreamWorkload wl{{.base = 0,
                       .bytes = 160,
                       .op_bytes = 8,
                       .stride_bytes = 8,
                       .store_ratio16 = 16}};
    CoreModel core{ctx, "core", ch, wl};
    step_until(ctx, [&] { return core.done(); }, 5000);
    EXPECT_EQ(core.stores_retired(), 20U);
    EXPECT_GT(core.store_latency().count(), 0U);
}

// --- DmaEngine ----------------------------------------------------------------

class DmaFixture : public ::testing::Test {
protected:
    DmaFixture() {
        slave = std::make_unique<mem::AxiMemSlave>(
            ctx, "mem", ch, std::make_unique<mem::SramBackend>(1, 1),
            mem::AxiMemSlaveConfig{8, 8, 0});
    }
    mem::SparseMemory& store() {
        return static_cast<mem::SramBackend&>(slave->backend()).store();
    }
    sim::SimContext ctx;
    axi::AxiChannel ch{ctx, "dma"};
    std::unique_ptr<mem::AxiMemSlave> slave;
};

TEST_F(DmaFixture, CopiesDataCorrectly) {
    for (axi::Addr a = 0; a < 4096; a += 8) { store().write_u64(a, a * 31 + 7); }
    DmaConfig cfg;
    cfg.burst_beats = 16;
    DmaEngine dma{ctx, "dma", ch, cfg};
    dma.push_job(DmaJob{0x0, 0x10000, 4096, false});
    step_until(ctx, [&] { return dma.idle(); }, 20000);
    for (axi::Addr a = 0; a < 4096; a += 8) {
        ASSERT_EQ(store().read_u64(0x10000 + a), a * 31 + 7) << "at offset " << a;
    }
    EXPECT_EQ(dma.bytes_read(), 4096U);
    EXPECT_EQ(dma.bytes_written(), 4096U);
    EXPECT_EQ(dma.chunks_completed(), 32U);
}

TEST_F(DmaFixture, TailChunkSmallerThanBurst) {
    DmaConfig cfg;
    cfg.burst_beats = 16; // 128 B chunks
    DmaEngine dma{ctx, "dma", ch, cfg};
    dma.push_job(DmaJob{0x0, 0x10000, 128 + 64, false}); // 1.5 chunks
    step_until(ctx, [&] { return dma.idle(); }, 10000);
    EXPECT_EQ(dma.bytes_written(), 192U);
    EXPECT_EQ(dma.chunks_completed(), 2U);
}

TEST_F(DmaFixture, LoopModeRunsUntilStopped) {
    DmaConfig cfg;
    cfg.burst_beats = 8;
    DmaEngine dma{ctx, "dma", ch, cfg};
    dma.push_job(DmaJob{0x0, 0x10000, 256, true});
    ctx.run(2000);
    EXPECT_GT(dma.chunks_completed(), 10U) << "looping job must keep copying";
    dma.stop();
    step_until(ctx, [&] { return dma.idle(); }, 20000);
}

TEST_F(DmaFixture, SustainsHighBandwidth) {
    DmaConfig cfg;
    cfg.burst_beats = 64;
    cfg.max_outstanding_reads = 2;
    DmaEngine dma{ctx, "dma", ch, cfg};
    dma.push_job(DmaJob{0x0, 0x20000, 16384, false});
    step_until(ctx, [&] { return dma.idle(); }, 40000);
    // Reads and writes stream concurrently: total moved bytes per cycle
    // should approach 2 x 8 B both directions combined.
    EXPECT_GT(dma.bandwidth(), 6.0) << "double-buffering should overlap R and W";
}

TEST_F(DmaFixture, ProtocolCleanUnderChecker) {
    // Run the DMA through a protocol checker to prove it emits legal AXI4.
    sim::SimContext ctx2;
    axi::AxiChannel up{ctx2, "up"};
    axi::AxiChannel down{ctx2, "down"};
    axi::AxiChecker checker{ctx2, "chk", up, down, /*throw=*/true};
    mem::AxiMemSlave slave2{ctx2, "mem", down, std::make_unique<mem::SramBackend>(1, 1),
                            mem::AxiMemSlaveConfig{8, 8, 0}};
    DmaConfig cfg;
    cfg.burst_beats = 32;
    DmaEngine dma{ctx2, "dma", up, cfg};
    dma.push_job(DmaJob{0x0, 0x8000, 2048, false});
    ASSERT_TRUE(ctx2.run_until([&] { return dma.idle(); }, 20000));
    EXPECT_EQ(checker.violation_count(), 0U);
    EXPECT_EQ(checker.completed_writes(), 8U);
    EXPECT_EQ(checker.completed_reads(), 8U);
}

TEST_F(DmaFixture, StallModeTrickleWrites) {
    DmaConfig cfg;
    cfg.burst_beats = 8;
    cfg.w_stall_cycles = 20;
    DmaEngine dma{ctx, "dma", ch, cfg};
    dma.push_job(DmaJob{0x0, 0x10000, 64, false});
    step_until(ctx, [&] { return dma.idle(); }, 20000);
    EXPECT_GT(dma.write_latency().max(), 7U * 20U)
        << "stall cycles must stretch the write burst (7 inter-beat gaps)";
}

} // namespace
} // namespace realm::traffic
