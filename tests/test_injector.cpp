/// Property tests for the programmable interference injector: every genome
/// decodes to legal parameters and a protocol-legal AXI stream (checker
/// clean, addresses in-span, bursts inside the 4 KiB boundary), the same
/// genome + seed replays bit-identical traffic, genome <-> label round-trips
/// exactly, and the detection plane stays at zero victim false positives
/// when searched attackers carry `hostile=true` ground truth.
#include "axi/checker.hpp"
#include "axi/trace.hpp"
#include "mem/axi_mem_slave.hpp"
#include "scenario/registry.hpp"
#include "scenario/search.hpp"
#include "sim/rng.hpp"
#include "traffic/injector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace realm {
namespace {

traffic::InjectorGenome genome_from(sim::Rng& rng) {
    traffic::InjectorGenome g;
    for (std::uint8_t& gene : g.genes) {
        gene = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    return g;
}

// --- Decode totality ---------------------------------------------------------

void expect_legal_params(const traffic::InjectorParams& p) {
    EXPECT_GE(p.read_beats, 1U);
    EXPECT_LE(p.read_beats, 256U);
    EXPECT_GE(p.write_beats, 1U);
    EXPECT_LE(p.write_beats, 256U);
    EXPECT_LE(p.write_ratio16, 16U);
    EXPECT_GE(p.stride_beats, 1U);
    EXPECT_LE(p.stride_beats, 256U);
    EXPECT_GE(p.on_cycles, 64U);
    EXPECT_LE(p.on_cycles, 1024U);
    EXPECT_LE(p.off_cycles, 448U);
    EXPECT_LE(p.w_stall_cycles, 64U);
    EXPECT_LE(p.head_delay, 96U);
    EXPECT_GE(p.max_outstanding, 1U);
    EXPECT_LE(p.max_outstanding, 4U);
    EXPECT_LE(p.ramp_step, 31U);
    EXPECT_LE(p.span_shift, 3U);
}

TEST(InjectorGenome, DecodeIsTotal) {
    traffic::InjectorGenome zeros;
    traffic::InjectorGenome ones;
    ones.genes.fill(0xFF);
    expect_legal_params(traffic::decode_genome(zeros));
    expect_legal_params(traffic::decode_genome(ones));
    sim::Rng rng{sim::derive_seed("decode-total", 0)};
    for (int i = 0; i < 256; ++i) {
        expect_legal_params(traffic::decode_genome(genome_from(rng)));
    }
}

TEST(InjectorGenome, LabelRoundTripsExactly) {
    sim::Rng rng{sim::derive_seed("label-roundtrip", 0)};
    for (int i = 0; i < 64; ++i) {
        const traffic::InjectorGenome g = genome_from(rng);
        const std::string label = traffic::to_label(g);
        ASSERT_EQ(label.size(), 4 + 2 * traffic::InjectorGenome::kGenes);
        const auto back = traffic::parse_injector_label(label);
        ASSERT_TRUE(back.has_value()) << label;
        EXPECT_TRUE(*back == g) << label;
    }
}

TEST(InjectorGenome, MalformedLabelsAreRejected) {
    EXPECT_FALSE(traffic::parse_injector_label("").has_value());
    EXPECT_FALSE(traffic::parse_injector_label("2atk/hog/none").has_value());
    EXPECT_FALSE(traffic::parse_injector_label("inj:").has_value());
    EXPECT_FALSE(traffic::parse_injector_label("inj:0011").has_value());
    EXPECT_FALSE( // right length, non-hex digit
        traffic::parse_injector_label("inj:zz1122334455667788990011").has_value());
    EXPECT_FALSE( // uppercase is not the canonical encoding
        traffic::parse_injector_label("inj:FF1122334455667788990011").has_value());
}

// --- Traffic legality and determinism ----------------------------------------

/// Injector -> checker -> tracer -> SRAM slave, all in a private context.
struct InjectorBench {
    InjectorBench(const traffic::InjectorGenome& g, std::uint64_t seed) {
        traffic::InjectorConfig icfg;
        icfg.genome = g;
        icfg.read_base = 0x0000;
        icfg.write_base = 0x8000;
        icfg.span_bytes = 0x2000;
        icfg.seed = seed;
        inj_out = std::make_unique<axi::AxiChannel>(ctx, "inj");
        chk_out = std::make_unique<axi::AxiChannel>(ctx, "chk");
        mem_ch = std::make_unique<axi::AxiChannel>(ctx, "mem");
        checker = std::make_unique<axi::AxiChecker>(ctx, "chk", *inj_out, *chk_out);
        tracer = std::make_unique<axi::AxiTracer>(ctx, "trace", *chk_out, *mem_ch);
        mem = std::make_unique<mem::AxiMemSlave>(
            ctx, "mem", *mem_ch, std::make_unique<mem::SramBackend>(2, 2),
            mem::AxiMemSlaveConfig{8, 8, 0});
        inj = std::make_unique<traffic::InjectorEngine>(ctx, "inj", *inj_out, icfg);
    }

    sim::SimContext ctx;
    std::unique_ptr<axi::AxiChannel> inj_out, chk_out, mem_ch;
    std::unique_ptr<axi::AxiChecker> checker;
    std::unique_ptr<axi::AxiTracer> tracer;
    std::unique_ptr<mem::AxiMemSlave> mem;
    std::unique_ptr<traffic::InjectorEngine> inj;
};

TEST(InjectorEngine, EveryGenomeDrivesALegalAxiStream) {
    sim::Rng rng{sim::derive_seed("injector-legal", 0)};
    for (int trial = 0; trial < 24; ++trial) {
        const traffic::InjectorGenome g = genome_from(rng);
        InjectorBench bench{g, sim::derive_seed("injector-legal-seed", trial)};
        bench.ctx.run(6000);

        EXPECT_EQ(bench.checker->violation_count(), 0U)
            << traffic::to_label(g);
        EXPECT_GT(bench.inj->reads_issued() + bench.inj->writes_issued(), 0U)
            << traffic::to_label(g) << ": a genome must generate traffic";
        for (const axi::TraceRecord& rec : bench.tracer->records()) {
            if (rec.channel != axi::TraceRecord::Channel::kAw &&
                rec.channel != axi::TraceRecord::Channel::kAr) {
                continue;
            }
            const bool write = rec.channel == axi::TraceRecord::Channel::kAw;
            const axi::Addr base = write ? 0x8000 : 0x0000;
            const std::uint64_t bytes = (std::uint64_t{rec.len} + 1) * 8;
            EXPECT_GE(rec.addr, base) << traffic::to_label(g);
            EXPECT_LE(rec.addr + bytes, base + 0x2000)
                << traffic::to_label(g) << ": burst leaves the window";
            EXPECT_LE((rec.addr & 4095) + bytes, 4096U)
                << traffic::to_label(g) << ": burst crosses a 4 KiB boundary";
        }
    }
}

TEST(InjectorEngine, SameGenomeAndSeedReplaysBitIdentical) {
    sim::Rng rng{sim::derive_seed("injector-replay", 0)};
    for (int trial = 0; trial < 6; ++trial) {
        const traffic::InjectorGenome g = genome_from(rng);
        InjectorBench a{g, 42};
        InjectorBench b{g, 42};
        a.ctx.run(4000);
        b.ctx.run(4000);
        const auto& ra = a.tracer->records();
        const auto& rb = b.tracer->records();
        ASSERT_EQ(ra.size(), rb.size()) << traffic::to_label(g);
        for (std::size_t i = 0; i < ra.size(); ++i) {
            EXPECT_EQ(ra[i].cycle, rb[i].cycle) << i;
            EXPECT_EQ(ra[i].channel, rb[i].channel) << i;
            EXPECT_EQ(ra[i].id, rb[i].id) << i;
            EXPECT_EQ(ra[i].addr, rb[i].addr) << i;
            EXPECT_EQ(ra[i].len, rb[i].len) << i;
            EXPECT_EQ(ra[i].last, rb[i].last) << i;
        }
    }
}

TEST(InjectorEngine, DifferentSeedsDiverge) {
    traffic::InjectorGenome g;
    g.genes[traffic::InjectorGenome::kWalk] = 2;      // random walk
    g.genes[traffic::InjectorGenome::kWriteRatio] = 128; // mixed traffic
    InjectorBench a{g, 1};
    InjectorBench b{g, 2};
    a.ctx.run(4000);
    b.ctx.run(4000);
    bool differs = a.tracer->records().size() != b.tracer->records().size();
    for (std::size_t i = 0;
         !differs && i < a.tracer->records().size(); ++i) {
        differs = a.tracer->records()[i].addr != b.tracer->records()[i].addr ||
                  a.tracer->records()[i].channel != b.tracer->records()[i].channel;
    }
    EXPECT_TRUE(differs) << "seed must steer the random-walk/mix RNG";
}

// --- Scenario plane integration ----------------------------------------------

scenario::ScenarioConfig smoke_attack_cell() {
    scenario::Sweep sweep = scenario::make_sweep("mesh-dos-smoke");
    for (scenario::SweepPoint& p : sweep.points) {
        if (!p.config.interference.empty()) { return p.config; }
    }
    ADD_FAILURE() << "mesh-dos-smoke has no attack cells";
    return scenario::ScenarioConfig{};
}

TEST(InjectorScenario, SearchedAttackersKeepDetectorFalsePositiveFree) {
    // Detection-coverage pass: genome attackers inherit `hostile=true` from
    // the DoS cell, so any flagged *benign* manager (the victim) is a false
    // positive. Honest boundary: weak genomes (short duty cycles, tiny
    // bursts) can evade detection — false *negatives* are expected and
    // scored, not asserted, exactly like the random-mix sweeps.
    scenario::ScenarioConfig cfg = smoke_attack_cell();
    cfg.monitors.enabled = true;
    sim::Rng rng{sim::derive_seed("injector-detect", 0)};
    for (int trial = 0; trial < 3; ++trial) {
        const scenario::ScenarioConfig point =
            scenario::genome_scenario(cfg, genome_from(rng));
        const scenario::ScenarioResult r = scenario::run_scenario(point);
        EXPECT_EQ(r.mon_false_positives, 0U)
            << point.name << ": victim flagged as attacker";
        ASSERT_FALSE(r.mgr_hostile.empty());
        EXPECT_EQ(r.mgr_hostile[0], 0U) << "manager 0 is the victim";
        EXPECT_EQ(r.mgr_flagged[0], 0U)
            << point.name << ": victim must never be flagged";
    }
}

} // namespace
} // namespace realm
