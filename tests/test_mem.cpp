/// Unit tests for the memory subsystem: sparse store, backends, AXI memory
/// subordinate, error subordinate, and the LLC.
#include "axi/builder.hpp"
#include "axi/channel.hpp"
#include "mem/axi_mem_slave.hpp"
#include "mem/backend.hpp"
#include "mem/error_slave.hpp"
#include "mem/llc.hpp"
#include "mem/sparse_memory.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

namespace realm::mem {
namespace {

using test::collect_b;
using test::collect_read_burst;
using test::push_write_burst;
using test::step_until;

TEST(SparseMemory, ReadsZeroWithoutAllocating) {
    SparseMemory m;
    std::array<std::uint8_t, 16> buf{0xFF};
    m.read(0x1234, buf);
    for (const auto b : buf) { EXPECT_EQ(b, 0); }
    EXPECT_EQ(m.page_count(), 0U);
}

TEST(SparseMemory, WriteReadRoundTrip) {
    SparseMemory m;
    m.write_u64(0x1000, 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(m.read_u64(0x1000), 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(m.read_u8(0x1000), 0x0D);
}

TEST(SparseMemory, CrossPageAccess) {
    SparseMemory m;
    std::array<std::uint8_t, 64> in{};
    for (std::size_t i = 0; i < in.size(); ++i) { in[i] = static_cast<std::uint8_t>(i + 1); }
    const axi::Addr addr = SparseMemory::kPageBytes - 32; // straddles two pages
    m.write(addr, in);
    std::array<std::uint8_t, 64> out{};
    m.read(addr, out);
    EXPECT_EQ(in, out);
    EXPECT_EQ(m.page_count(), 2U);
}

TEST(SparseMemory, StrobeMasksBytes) {
    SparseMemory m;
    m.write_u64(0x100, 0x1111111111111111ULL);
    std::array<std::uint8_t, 8> in{};
    in.fill(0xFF);
    m.write(0x100, in, 0x0F); // low four lanes only
    EXPECT_EQ(m.read_u64(0x100), 0x11111111FFFFFFFFULL);
}

TEST(SparseMemory, PageChunkedWritesMatchAByteWiseModel) {
    // Seeded differential check of the page-at-a-time write path against a
    // byte map that applies strobe bit i % 64 to byte i. Writes run up to
    // three pages, half of them start just below a page boundary, and the
    // strobe patterns cover every chunk case: all bits set (copied whole),
    // all clear (no page allocated), and mixed (masked byte by byte).
    constexpr axi::Addr kPage = SparseMemory::kPageBytes;
    constexpr axi::Addr kBase = 0x4000'0000;
    constexpr std::uint64_t kPages = 12;
    sim::Rng rng{0x5A11'0C47};
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out(kPages * kPage);
    for (int round = 0; round < 60; ++round) {
        SparseMemory mem;
        std::map<axi::Addr, std::uint8_t> ref;
        for (int n = 0; n < 5; ++n) {
            axi::Addr addr = kBase + rng.uniform(0, 7 * kPage);
            if (rng.chance(1, 2)) { addr = kBase + rng.uniform(1, 8) * kPage - rng.uniform(1, 80); }
            const std::uint64_t len =
                rng.chance(1, 2) ? rng.uniform(0, 130) : rng.uniform(0, 3 * kPage);
            const std::array<axi::Strb, 6> strobes{
                ~axi::Strb{0}, 0, 0xFFFF'FFFF, 0xFFFF'FFFF'0000'0000ULL,
                axi::Strb{1} << rng.uniform(0, 63), rng.next()};
            const axi::Strb strb = strobes[rng.uniform(0, strobes.size() - 1)];
            in.resize(len);
            for (std::uint8_t& b : in) { b = static_cast<std::uint8_t>(rng.next()); }
            mem.write(addr, in, strb);
            for (std::uint64_t i = 0; i < len; ++i) {
                if ((strb >> (i % 64)) & 1U) { ref[addr + i] = in[i]; }
            }
        }
        mem.read(kBase, out);
        for (std::uint64_t i = 0; i < out.size(); ++i) {
            const auto it = ref.find(kBase + i);
            ASSERT_EQ(out[i], it == ref.end() ? 0 : it->second)
                << "round " << round << ", byte " << kBase + i;
        }
        std::set<axi::Addr> pages;
        for (const auto& [a, v] : ref) { pages.insert(a / kPage); }
        EXPECT_EQ(mem.page_count(), pages.size()) << "round " << round;
    }
}

TEST(DramBackend, RowHitFasterThanMiss) {
    DramBackend d{DramTiming{10, 40, 8, 2048}};
    const sim::Cycle first = d.access_latency(0x0, 8, false, 0);
    const sim::Cycle second = d.access_latency(0x40, 8, false, 100);
    EXPECT_EQ(first, 40U) << "cold row must pay the miss latency";
    EXPECT_EQ(second, 10U) << "open row must pay only CAS";
    EXPECT_EQ(d.row_hits(), 1U);
    EXPECT_EQ(d.row_misses(), 1U);
}

TEST(DramBackend, BankBusySerializes) {
    DramBackend d{DramTiming{10, 40, 8, 2048}};
    (void)d.access_latency(0x0, 8, false, 0); // bank 0 busy until ~48
    const sim::Cycle lat = d.access_latency(0x100, 8, false, 1);
    EXPECT_GT(lat, 10U) << "second access to the same bank must queue";
}

TEST(DramBackend, DifferentBanksDoNotSerialize) {
    DramBackend d{DramTiming{10, 40, 8, 2048}};
    (void)d.access_latency(0x0, 8, false, 0);
    const sim::Cycle lat = d.access_latency(2048, 8, false, 1); // next bank stripe
    EXPECT_EQ(lat, 40U) << "cold row in an idle bank pays only its own miss";
}

class MemSlaveFixture : public ::testing::Test {
protected:
    sim::SimContext ctx;
    axi::AxiChannel ch{ctx, "mem"};
    AxiMemSlave slave{ctx, "sram", ch, std::make_unique<SramBackend>(2, 1),
                      AxiMemSlaveConfig{4, 4, 0}};
};

TEST_F(MemSlaveFixture, WriteThenReadBack) {
    push_write_burst(ctx, ch, /*id=*/1, 0x1000, /*beats=*/4, /*beat_bytes=*/8, 0x10);
    const axi::BFlit b = collect_b(ctx, ch);
    EXPECT_EQ(b.id, 1U);
    EXPECT_EQ(b.resp, axi::Resp::kOkay);

    axi::ManagerView mgr{ch};
    mgr.send_ar(axi::make_ar(2, 0x1000, 4, 3));
    const axi::RFlit last = collect_read_burst(ctx, ch, 4);
    EXPECT_EQ(last.id, 2U);
    // Fill pattern from push_write_burst: fill + beat + lane.
    EXPECT_EQ(last.data.bytes[0], 0x10 + 3);
}

TEST_F(MemSlaveFixture, ReadLatencyMatchesBackend) {
    axi::ManagerView mgr{ch};
    const sim::Cycle t0 = ctx.now();
    mgr.send_ar(axi::make_ar(1, 0x0, 1, 3));
    step_until(ctx, [&] { return mgr.has_r(); });
    // 1 cycle link + accept + 2 cycles SRAM read latency + 1 cycle link.
    EXPECT_GE(ctx.now() - t0, 4U);
    EXPECT_LE(ctx.now() - t0, 6U);
}

TEST_F(MemSlaveFixture, StreamsOneBeatPerCycle) {
    axi::ManagerView mgr{ch};
    mgr.send_ar(axi::make_ar(1, 0x0, 8, 3));
    step_until(ctx, [&] { return mgr.has_r(); });
    const sim::Cycle first = ctx.now();
    (void)mgr.recv_r();
    for (int i = 0; i < 7; ++i) {
        step_until(ctx, [&] { return mgr.has_r(); });
        (void)mgr.recv_r();
    }
    EXPECT_EQ(ctx.now() - first, 7U) << "8 beats must stream back-to-back";
}

TEST_F(MemSlaveFixture, PipelinesIndependentReads) {
    axi::ManagerView mgr{ch};
    mgr.send_ar(axi::make_ar(1, 0x0, 4, 3));
    ctx.step();
    mgr.send_ar(axi::make_ar(2, 0x100, 4, 3));
    (void)collect_read_burst(ctx, ch, 4);
    const sim::Cycle between = ctx.now();
    (void)collect_read_burst(ctx, ch, 4);
    EXPECT_LE(ctx.now() - between, 6U) << "second burst should be nearly ready";
}

TEST(ErrorSlave, RespondsDecErrToEverything) {
    sim::SimContext ctx;
    axi::AxiChannel ch{ctx, "err"};
    ErrorSlave err{ctx, "err", ch};

    push_write_burst(ctx, ch, 5, 0xDEAD0000, 2, 8);
    const axi::BFlit b = collect_b(ctx, ch);
    EXPECT_EQ(b.resp, axi::Resp::kDecErr);
    EXPECT_EQ(b.id, 5U);

    axi::ManagerView mgr{ch};
    mgr.send_ar(axi::make_ar(6, 0xDEAD0000, 3, 3));
    const axi::RFlit r = collect_read_burst(ctx, ch, 3);
    EXPECT_EQ(r.resp, axi::Resp::kDecErr);
    EXPECT_EQ(err.errors_returned(), 2U);
}

class LlcFixture : public ::testing::Test {
protected:
    LlcFixture() {
        // Small cache so eviction paths are reachable: 4 sets x 2 ways x 64 B.
        LlcConfig cfg;
        cfg.sets = 4;
        cfg.ways = 2;
        cfg.line_bytes = 64;
        cfg.bus_bytes = 8;
        cfg.hit_latency = 2;
        llc = std::make_unique<Llc>(ctx, "llc", up, down, cfg);
        dram = std::make_unique<AxiMemSlave>(ctx, "dram", down,
                                             std::make_unique<DramBackend>(),
                                             AxiMemSlaveConfig{8, 8, 0});
    }

    SparseMemory& dram_store() {
        return static_cast<DramBackend&>(dram->backend()).store();
    }

    sim::SimContext ctx;
    axi::AxiChannel up{ctx, "up"};
    axi::AxiChannel down{ctx, "down"};
    std::unique_ptr<Llc> llc;
    std::unique_ptr<AxiMemSlave> dram;
};

TEST_F(LlcFixture, ColdMissFetchesFromDram) {
    dram_store().write_u64(0x1000, 0xABCD'1234'5678'9876ULL);
    axi::ManagerView mgr{up};
    mgr.send_ar(axi::make_ar(1, 0x1000, 1, 3));
    const axi::RFlit r = collect_read_burst(ctx, up, 1);
    std::uint64_t v = 0;
    std::memcpy(&v, r.data.bytes.data(), 8);
    EXPECT_EQ(v, 0xABCD'1234'5678'9876ULL);
    EXPECT_EQ(llc->misses(), 1U);
    EXPECT_TRUE(llc->contains(0x1000));
}

TEST_F(LlcFixture, WarmHitIsFast) {
    dram_store().write_u64(0x2000, 42);
    llc->warm_range(0x2000, 64, dram_store());
    ASSERT_TRUE(llc->contains(0x2000));
    axi::ManagerView mgr{up};
    const sim::Cycle t0 = ctx.now();
    mgr.send_ar(axi::make_ar(1, 0x2000, 1, 3));
    const axi::RFlit r = collect_read_burst(ctx, up, 1);
    std::uint64_t v = 0;
    std::memcpy(&v, r.data.bytes.data(), 8);
    EXPECT_EQ(v, 42U);
    EXPECT_LE(ctx.now() - t0, 6U);
    EXPECT_EQ(llc->misses(), 0U);
}

TEST_F(LlcFixture, WriteAllocateAndWritebackOnEviction) {
    // Write to a cold line: write-allocate fetches it first.
    push_write_burst(ctx, up, 1, 0x3000, 1, 8, 0x55);
    (void)collect_b(ctx, up);
    EXPECT_EQ(llc->misses(), 1U);

    // Evict it by filling the set: lines mapping to the same set are
    // line_bytes * sets = 256 B apart; 2 ways -> third line evicts.
    axi::ManagerView mgr{up};
    mgr.send_ar(axi::make_ar(2, 0x3000 + 256, 1, 3));
    (void)collect_read_burst(ctx, up, 1);
    mgr.send_ar(axi::make_ar(2, 0x3000 + 512, 1, 3));
    (void)collect_read_burst(ctx, up, 1);
    EXPECT_EQ(llc->writebacks(), 1U) << "dirty victim must be written back";
    // The dirty data must have landed in DRAM (pattern 0x55 + lane from
    // push_write_burst).
    EXPECT_EQ(dram_store().read_u8(0x3000), 0x55);
}

TEST_F(LlcFixture, ZeroByteWarmInstallsNoLine) {
    llc->warm_range(0x2004, 0, dram_store());
    ASSERT_FALSE(llc->contains(0x2000)) << "an empty range at an unaligned base";
    llc->warm_range(0x0, 0, dram_store());
    EXPECT_FALSE(llc->contains(0x0)) << "an empty range at address 0";
}

TEST_F(LlcFixture, HotSingleBeatReadsPipelineBackToBack) {
    dram_store().write_u64(0x0, 1);
    llc->warm_range(0x0, 256, dram_store());
    axi::ManagerView mgr{up};
    // Queue several single-beat reads; they must stream ~1 beat/cycle.
    for (int i = 0; i < 4; ++i) {
        step_until(ctx, [&] { return mgr.can_send_ar(); });
        mgr.send_ar(axi::make_ar(1, static_cast<axi::Addr>(i * 8), 1, 3));
        ctx.step();
    }
    step_until(ctx, [&] { return mgr.has_r(); });
    const sim::Cycle first = ctx.now();
    int beats = 1;
    (void)mgr.recv_r();
    while (beats < 4) {
        step_until(ctx, [&] { return mgr.has_r(); });
        (void)mgr.recv_r();
        ++beats;
    }
    EXPECT_LE(ctx.now() - first, 6U) << "hits must pipeline, not serialize";
}

TEST_F(LlcFixture, LongBurstOccupiesReadStream) {
    dram_store().write_u64(0x0, 1);
    llc->warm_range(0x0, 4 * 64, dram_store());
    axi::ManagerView mgr{up};
    mgr.send_ar(axi::make_ar(1, 0x0, 32, 3)); // 32-beat burst
    ctx.step();
    mgr.send_ar(axi::make_ar(2, 0x8, 1, 3)); // queued behind it
    // Collect the long burst then the single.
    int long_beats = 0;
    while (long_beats < 32) {
        step_until(ctx, [&] { return mgr.has_r(); });
        const axi::RFlit r = mgr.recv_r();
        if (r.id == 1) { ++long_beats; }
    }
    const sim::Cycle long_done = ctx.now();
    step_until(ctx, [&] { return mgr.has_r(); });
    EXPECT_LE(ctx.now() - long_done, 3U)
        << "the queued single beat must follow right after the long burst";
}

} // namespace
} // namespace realm::mem
