/// \file
/// \brief google-benchmark micro-benchmarks: simulation throughput of the
///        individual substrates and of the full SoC (host-side performance,
///        cycles simulated per wall second).
#include "axi/builder.hpp"
#include "axi/channel.hpp"
#include "ic/mux.hpp"
#include "ic/xbar.hpp"
#include "noc/arena.hpp"
#include "noc/credit.hpp"
#include "noc/routing.hpp"
#include "mem/axi_mem_slave.hpp"
#include "mem/llc.hpp"
#include "mem/sparse_memory.hpp"
#include "mon/quantile.hpp"
#include "mon/txn_monitor.hpp"
#include "realm/splitter.hpp"
#include "scenario/registry.hpp"
#include "scenario/topology.hpp"
#include "scenario/scenario.hpp"
#include "soc/cheshire_soc.hpp"
#include "traffic/core.hpp"
#include "traffic/dma.hpp"
#include "traffic/injector.hpp"
#include "traffic/susan.hpp"

#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace {

using namespace realm;

/// The config of the point `label` of the registered sweep `sweep`; when it
/// has none, skips the bench with an error naming both.
std::optional<scenario::ScenarioConfig> sweep_point(benchmark::State& state,
                                                    const std::string& sweep,
                                                    const std::string& label) {
    const scenario::Sweep points = scenario::make_sweep(sweep);
    for (const scenario::SweepPoint& p : points.points) {
        if (p.label == label) { return p.config; }
    }
    state.SkipWithError((sweep + " has no point " + label).c_str());
    return std::nullopt;
}

void BM_LinkTransfer(benchmark::State& state) {
    sim::SimContext ctx;
    sim::Link<axi::RFlit> link{ctx, 2, "l"};
    axi::RFlit flit;
    for (auto _ : state) {
        if (link.can_push()) { link.push(flit); }
        if (link.can_pop()) { benchmark::DoNotOptimize(link.pop()); }
        ctx.step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ctx.now()));
    state.counters["cycles/s"] =
        benchmark::Counter(static_cast<double>(ctx.now()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LinkTransfer);

void BM_CreditedLinkCycle(benchmark::State& state) {
    // Host-side cost of the credited wormhole link: a producer streaming
    // 4-flit R worms through one VC against a consumer draining every
    // cycle — flit accounting, serialization window, and occupancy assert
    // all on the hot path.
    sim::SimContext ctx;
    noc::NocFlowConfig fc; // defaults: credited, 4 flits/worm, vc_depth 8
    std::vector<noc::NocLink::Slot> slots(noc::NocLink::slots_needed(fc, 1));
    noc::NocLink link{ctx, "credited", fc, slots};
    noc::NocPacket worm;
    worm.flits = static_cast<std::uint8_t>(fc.flits_per_packet);
    worm.flit = axi::RFlit{};
    for (auto _ : state) {
        if (link.can_push(worm)) { link.push(worm); }
        if (link.can_pop()) { benchmark::DoNotOptimize(link.pop()); }
        ctx.step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ctx.now()));
    state.counters["cycles/s"] =
        benchmark::Counter(static_cast<double>(ctx.now()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CreditedLinkCycle);

void BM_BurstFragmentation(benchmark::State& state) {
    const auto granularity = static_cast<std::uint32_t>(state.range(0));
    const axi::BurstDescriptor desc{0x1000, 255, 3, axi::Burst::kIncr};
    for (auto _ : state) {
        benchmark::DoNotOptimize(axi::fragment_burst(desc, granularity));
    }
}
BENCHMARK(BM_BurstFragmentation)->Arg(1)->Arg(16)->Arg(256);

void BM_SplitterReadPath(benchmark::State& state) {
    rt::GranularBurstSplitter sp{static_cast<std::uint32_t>(state.range(0)), 8};
    for (auto _ : state) {
        sp.accept_read(axi::make_ar(1, 0x0, 256, 3));
        while (sp.has_child_ar()) { benchmark::DoNotOptimize(sp.pop_child_ar()); }
        axi::RFlit beat;
        beat.id = 1;
        for (std::uint32_t child = 0; child < 256 / state.range(0); ++child) {
            for (std::uint32_t b = 0; b + 1 < static_cast<std::uint32_t>(state.range(0));
                 ++b) {
                beat.last = false;
                benchmark::DoNotOptimize(sp.process_r(beat));
            }
            beat.last = true;
            benchmark::DoNotOptimize(sp.process_r(beat));
        }
    }
}
BENCHMARK(BM_SplitterReadPath)->Arg(1)->Arg(4)->Arg(64);

void BM_SramSlaveCycle(benchmark::State& state) {
    sim::SimContext ctx;
    axi::AxiChannel ch{ctx, "m"};
    mem::AxiMemSlave slave{ctx, "mem", ch, std::make_unique<mem::SramBackend>(1, 1),
                           mem::AxiMemSlaveConfig{8, 8, 0}};
    axi::ManagerView mgr{ch};
    for (auto _ : state) {
        if (mgr.can_send_ar()) { mgr.send_ar(axi::make_ar(1, ctx.now() % 4096, 1, 3)); }
        if (mgr.has_r()) { benchmark::DoNotOptimize(mgr.recv_r()); }
        ctx.step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ctx.now()));
    state.counters["cycles/s"] =
        benchmark::Counter(static_cast<double>(ctx.now()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SramSlaveCycle);

void BM_AxiMuxFanIn(benchmark::State& state) {
    // Per-cycle cost of a subordinate-side mux at NoC fan-in (Arg = upstream
    // lanes): lane 0 streams 1-beat reads into an SRAM slave and every
    // other lane stays empty, as at a mesh memory node where one of many
    // managers talks. 257 is the fan-in of each subordinate mux on the
    // 32x32 hog256 point (victim plus 256 attackers). Items are cycles.
    const auto lanes = static_cast<std::size_t>(state.range(0));
    sim::SimContext ctx;
    std::vector<std::unique_ptr<axi::AxiChannel>> ups;
    std::vector<axi::AxiChannel*> up_ptrs;
    for (std::size_t i = 0; i < lanes; ++i) {
        ups.push_back(std::make_unique<axi::AxiChannel>(ctx, "up" + std::to_string(i)));
        up_ptrs.push_back(ups.back().get());
    }
    axi::AxiChannel down{ctx, "down"};
    ic::AxiMux mux{ctx, "mux", up_ptrs, down};
    mem::AxiMemSlave slave{ctx, "mem", down, std::make_unique<mem::SramBackend>(1, 1),
                           mem::AxiMemSlaveConfig{8, 8, 0}};
    axi::ManagerView mgr{*ups[0]};
    for (auto _ : state) {
        if (mgr.can_send_ar()) { mgr.send_ar(axi::make_ar(1, ctx.now() % 4096, 1, 3)); }
        if (mgr.has_r()) { benchmark::DoNotOptimize(mgr.recv_r()); }
        ctx.step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ctx.now()));
    state.counters["cycles/s"] =
        benchmark::Counter(static_cast<double>(ctx.now()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AxiMuxFanIn)->Arg(2)->Arg(16)->Arg(257);

void BM_QuantileSketch(benchmark::State& state) {
    // Record cost of the fixed-memory HDR sketch: the per-completed-burst
    // price every monitored manager pays. The LCG spreads samples across the
    // log-linear buckets so the branch history is realistic.
    mon::QuantileSketch sketch;
    std::uint64_t lcg = 0x9E3779B97F4A7C15ULL;
    for (auto _ : state) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        sketch.record((lcg >> 33) % 100'000);
    }
    benchmark::DoNotOptimize(sketch.quantile(0.99));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QuantileSketch);

void BM_TxnMonitorTick(benchmark::State& state) {
    // Steady-state per-cycle cost of the monitor's tap: a manager pipelining
    // 1-beat reads into a port that an SRAM slave drains and the monitor
    // observes, so every cycle runs the observers, matches bursts, checks
    // the port for held requests and rolls windows.
    sim::SimContext ctx;
    axi::AxiChannel port{ctx, "port"};
    mem::AxiMemSlave slave{ctx, "mem", port, std::make_unique<mem::SramBackend>(1, 1),
                           mem::AxiMemSlaveConfig{8, 8, 0}};
    mon::TxnMonitor monitor{ctx, "mon", port, mon::TxnMonitorConfig{}};
    axi::ManagerView mgr{port};
    for (auto _ : state) {
        if (mgr.can_send_ar()) { mgr.send_ar(axi::make_ar(1, ctx.now() % 4096, 1, 3)); }
        if (mgr.has_r()) { benchmark::DoNotOptimize(mgr.recv_r()); }
        ctx.step();
    }
    monitor.finalize();
    benchmark::DoNotOptimize(monitor.read_sketch().count());
    state.SetItemsProcessed(static_cast<std::int64_t>(ctx.now()));
    state.counters["cycles/s"] =
        benchmark::Counter(static_cast<double>(ctx.now()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TxnMonitorTick);

void BM_InjectorTick(benchmark::State& state) {
    // Steady-state per-cycle cost of the programmable injector: a dense
    // always-on genome (max outstanding, mixed reads/writes, random walk)
    // hammering an SRAM slave, so every cycle issues, streams W beats, and
    // collects responses — the injector's hot path during a search.
    sim::SimContext ctx;
    axi::AxiChannel ch{ctx, "inj"};
    traffic::InjectorConfig icfg;
    icfg.genome.genes[traffic::InjectorGenome::kReadBeats] = 31;
    icfg.genome.genes[traffic::InjectorGenome::kWriteBeats] = 31;
    icfg.genome.genes[traffic::InjectorGenome::kWriteRatio] = 128;
    icfg.genome.genes[traffic::InjectorGenome::kWalk] = 2; // random
    icfg.genome.genes[traffic::InjectorGenome::kOutstanding] = 3;
    icfg.write_base = 0x8000;
    icfg.span_bytes = 0x2000;
    traffic::InjectorEngine inj{ctx, "inj", ch, icfg};
    mem::AxiMemSlave slave{ctx, "mem", ch, std::make_unique<mem::SramBackend>(1, 1),
                           mem::AxiMemSlaveConfig{8, 8, 0}};
    for (auto _ : state) { ctx.step(); }
    benchmark::DoNotOptimize(inj.bytes_read() + inj.bytes_written());
    state.SetItemsProcessed(static_cast<std::int64_t>(ctx.now()));
    state.counters["cycles/s"] =
        benchmark::Counter(static_cast<double>(ctx.now()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InjectorTick);

void BM_FullSocCycle(benchmark::State& state) {
    sim::SimContext ctx;
    soc::CheshireSoc soc{ctx, soc::SocConfig{}};
    for (axi::Addr a = 0; a < 0x10000; a += 8) {
        soc.dram_image().write_u64(0x8000'0000 + a, a);
    }
    soc.warm_llc(0x8000'0000, 0x10000);
    traffic::DmaConfig dcfg;
    dcfg.burst_beats = 64;
    traffic::DmaEngine dma{ctx, "dma", soc.dsa_port(0), dcfg};
    dma.push_job(traffic::DmaJob{0x8000'8000, 0x7000'0000, 0x4000, true});
    traffic::StreamWorkload wl{
        {.base = 0x8000'0000, .bytes = 0x8000, .op_bytes = 8, .stride_bytes = 8,
         .repeat = 1000000}};
    traffic::CoreModel core{ctx, "core", soc.core_port(), wl};
    for (auto _ : state) { ctx.step(); }
    state.counters["sim-cycles/s"] =
        benchmark::Counter(static_cast<double>(ctx.now()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullSocCycle);

void BM_RingNocCycle(benchmark::State& state) {
    // Simulation throughput of the ring fabric itself: a contended ring
    // scenario point, stepped cycle by cycle (substrate cost per node).
    sim::SimContext ctx;
    scenario::ScenarioConfig cfg;
    auto& ring = cfg.fabric.emplace<scenario::RingTopologyConfig>();
    ring.num_nodes = static_cast<std::uint8_t>(state.range(0));
    ring.nodes = scenario::make_ring_roles(ring.num_nodes, 1, 2);
    auto topo = scenario::make_topology(ctx, cfg);
    traffic::DmaConfig dcfg;
    dcfg.burst_beats = 64;
    traffic::DmaEngine dma{ctx, "dma", topo->interference_port(0), dcfg};
    dma.push_job(traffic::DmaJob{0x0, 0x10'0000, 0x4000, true});
    for (auto _ : state) { ctx.step(); }
    state.counters["sim-cycles/s"] =
        benchmark::Counter(static_cast<double>(ctx.now()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RingNocCycle)->Arg(6)->Arg(24)->Arg(48);

void BM_MeshNocCycle(benchmark::State& state) {
    // Simulation throughput of the mesh fabric: a contended mesh scenario
    // point, stepped cycle by cycle (substrate cost per router). Sized to
    // match the ring points (6 / 24 / 48 nodes).
    static const std::pair<std::uint8_t, std::uint8_t> kDims[] = {
        {2, 3}, {4, 6}, {6, 8}};
    const auto [rows, cols] = kDims[state.range(0)];
    sim::SimContext ctx;
    scenario::ScenarioConfig cfg;
    auto& mesh = cfg.fabric.emplace<scenario::MeshTopologyConfig>();
    mesh.rows = rows;
    mesh.cols = cols;
    mesh.nodes = scenario::make_mesh_roles(rows, cols, 1, 2);
    auto topo = scenario::make_topology(ctx, cfg);
    traffic::DmaConfig dcfg;
    dcfg.burst_beats = 64;
    traffic::DmaEngine dma{ctx, "dma", topo->interference_port(0), dcfg};
    dma.push_job(traffic::DmaJob{0x0, 0x10'0000, 0x4000, true});
    for (auto _ : state) { ctx.step(); }
    state.counters["sim-cycles/s"] =
        benchmark::Counter(static_cast<double>(ctx.now()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MeshNocCycle)->Arg(0)->Arg(1)->Arg(2);

void BM_MeshRoutePolicy(benchmark::State& state) {
    // Host-side cost of the routing decision itself, per policy: every
    // (cur, dest) pair of a 4x6 mesh through `permitted_hops`, with the
    // per-worm route-class hash on the O1TURN path. This is the function
    // every router calls for every packet it moves, so a slow policy here
    // taxes the whole fabric simulation.
    const auto policy = static_cast<noc::RoutingPolicy>(state.range(0));
    constexpr std::uint8_t kRows = 4;
    constexpr std::uint8_t kCols = 6;
    std::uint16_t seq = 0;
    std::uint64_t decisions = 0;
    for (auto _ : state) {
        for (std::uint8_t cur = 0; cur < kRows * kCols; ++cur) {
            for (std::uint8_t dest = 0; dest < kRows * kCols; ++dest) {
                const std::uint8_t vc = noc::route_class(policy, cur, dest, seq++);
                benchmark::DoNotOptimize(
                    noc::permitted_hops(policy, kCols, cur, dest, vc));
                ++decisions;
            }
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
    state.SetLabel(noc::to_string(policy));
    state.counters["decisions/s"] =
        benchmark::Counter(static_cast<double>(decisions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MeshRoutePolicy)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_ShardedMeshCycle(benchmark::State& state) {
    // Simulation throughput of the sharded kernel on a 16x16 mesh under
    // heavy multi-manager contention, vs shard count (Arg). On a 1-core
    // runner every count degrades to sequential multiplexing; on the CI
    // perf runner shards tick concurrently and the >= 2x speedup of
    // `--shards 4` over `--shards 1` is the acceptance number.
    const auto shards = static_cast<unsigned>(state.range(0));
    sim::SimContext ctx;
    ctx.set_shards(shards);
    scenario::ScenarioConfig cfg;
    auto& mesh = cfg.fabric.emplace<scenario::MeshTopologyConfig>();
    mesh.rows = 16;
    mesh.cols = 16;
    mesh.nodes = scenario::make_mesh_roles(16, 16, 8, 2);
    auto topo = scenario::make_topology(ctx, cfg);
    std::vector<std::unique_ptr<traffic::DmaEngine>> dmas;
    traffic::DmaConfig dcfg;
    dcfg.burst_beats = 64;
    for (std::size_t i = 0; i < topo->num_interference_ports(); ++i) {
        const sim::ShardScope scope{ctx, topo->interference_shard(i)};
        dmas.push_back(std::make_unique<traffic::DmaEngine>(
            ctx, "dma" + std::to_string(i), topo->interference_port(i), dcfg));
        dmas.back()->push_job(
            traffic::DmaJob{0x800 * i, 0x10'0000 + 0x800 * i, 0x4000, true});
    }
    for (auto _ : state) { ctx.step(); }
    state.SetLabel("shards=" + std::to_string(shards));
    state.counters["sim-cycles/s"] =
        benchmark::Counter(static_cast<double>(ctx.now()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardedMeshCycle)->Arg(1)->Arg(2)->Arg(4);

void BM_ShardBarrier(benchmark::State& state) {
    // Barrier cost in isolation: the same contended 16x16 mesh as
    // BM_ShardedMeshCycle at four shards, vs link latency (Arg). Deeper
    // links raise the kernel's conservative lookahead, so workers run
    // `link_latency` cycles per barrier epoch instead of one — the
    // throughput delta between Arg(1) and Arg(4) is exactly the barrier
    // round-trips the batching amortized away.
    const auto latency = static_cast<std::uint32_t>(state.range(0));
    sim::SimContext ctx;
    ctx.set_shards(4);
    scenario::ScenarioConfig cfg;
    auto& mesh = cfg.fabric.emplace<scenario::MeshTopologyConfig>();
    mesh.rows = 16;
    mesh.cols = 16;
    mesh.nodes = scenario::make_mesh_roles(16, 16, 8, 2);
    mesh.link_latency = latency;
    auto topo = scenario::make_topology(ctx, cfg);
    ctx.set_lookahead(topo->lookahead());
    std::vector<std::unique_ptr<traffic::DmaEngine>> dmas;
    traffic::DmaConfig dcfg;
    dcfg.burst_beats = 64;
    for (std::size_t i = 0; i < topo->num_interference_ports(); ++i) {
        const sim::ShardScope scope{ctx, topo->interference_shard(i)};
        dmas.push_back(std::make_unique<traffic::DmaEngine>(
            ctx, "dma" + std::to_string(i), topo->interference_port(i), dcfg));
        dmas.back()->push_job(
            traffic::DmaJob{0x800 * i, 0x10'0000 + 0x800 * i, 0x4000, true});
    }
    const sim::Cycle batch = topo->lookahead();
    for (auto _ : state) { ctx.run(batch); }
    state.SetLabel("link_latency=" + std::to_string(latency));
    state.counters["sim-cycles/s"] =
        benchmark::Counter(static_cast<double>(ctx.now()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardBarrier)->Arg(1)->Arg(2)->Arg(4);

void BM_ArenaVsHeapPacket(benchmark::State& state) {
    // The stash allocation discipline in isolation: worm-sized bursts of
    // packet stash/unstash against either the contiguous slot arena
    // (Arg 0) or a plain heap-backed vector (Arg 1) — the layout the arena
    // replaced. The arena reaches its high-water mark once and then
    // recycles; the heap variant churns an allocation per stashed packet.
    const bool heap = state.range(0) != 0;
    noc::NocPacket pkt;
    pkt.flits = 4;
    pkt.flit = axi::RFlit{};
    constexpr std::size_t kBurst = 16;
    if (heap) {
        std::vector<std::unique_ptr<noc::NocPacket>> stash;
        for (auto _ : state) {
            for (std::size_t i = 0; i < kBurst; ++i) {
                stash.push_back(std::make_unique<noc::NocPacket>(pkt));
            }
            for (std::size_t i = 0; i < kBurst; ++i) {
                benchmark::DoNotOptimize(stash.back()->flits);
                stash.pop_back();
            }
        }
    } else {
        noc::PacketArena arena;
        std::vector<noc::PacketArena::Slot> slots;
        slots.reserve(kBurst);
        for (auto _ : state) {
            for (std::size_t i = 0; i < kBurst; ++i) {
                slots.push_back(arena.acquire(pkt));
            }
            for (std::size_t i = 0; i < kBurst; ++i) {
                benchmark::DoNotOptimize(arena[slots.back()].flits);
                arena.release(slots.back());
                slots.pop_back();
            }
        }
    }
    state.SetLabel(heap ? "heap" : "arena");
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kBurst));
}
BENCHMARK(BM_ArenaVsHeapPacket)->Arg(0)->Arg(1);

void BM_SusanTraceGeneration(benchmark::State& state) {
    // The price of a `shared_susan_trace` miss: one kernel run over the
    // Figure 6 image. Items are window taps.
    traffic::SusanConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    std::uint64_t taps = 0;
    for (auto _ : state) {
        traffic::SusanTraceGenerator gen{cfg};
        benchmark::DoNotOptimize(gen.ops().size());
        taps += gen.total_taps();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(taps));
}
BENCHMARK(BM_SusanTraceGeneration);

void BM_CheshireSetup(benchmark::State& state) {
    // What an `xbar-fig6` set-up pass spends per point once this thread has
    // built the Susan trace: the Cheshire build, the DRAM image write, the
    // LLC warm, preload, boot, harvest and teardown. A zero-budget run of
    // fig6a's `frag 1` point, as perfbench times set-up; one untimed run
    // builds the trace first. Items are points set up.
    const std::optional<scenario::ScenarioConfig> point = sweep_point(state, "fig6a", "frag 1");
    if (!point) { return; }
    scenario::ScenarioConfig cfg = *point;
    cfg.warmup_cycles = 0;
    cfg.max_cycles = 0;
    cfg.cooldown_cycles = 0;
    benchmark::DoNotOptimize(scenario::run_scenario(cfg));
    for (auto _ : state) {
        benchmark::DoNotOptimize(scenario::run_scenario(cfg));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheshireSetup);

void BM_PreloadSpan(benchmark::State& state) {
    // The mesh DoS cells' preload volume (80 KiB of `off * 7` words) written
    // in one call into a fresh memory, as `run_scenario` preconditions it.
    std::vector<std::uint8_t> bytes(80 * 1024);
    for (std::uint64_t off = 0; off < bytes.size(); off += 8) {
        const std::uint64_t word = off * 7;
        for (std::size_t i = 0; i < 8; ++i) {
            bytes[off + i] = static_cast<std::uint8_t>(word >> (8 * i));
        }
    }
    for (auto _ : state) {
        mem::SparseMemory memory;
        memory.write(0x10'0000, bytes);
        benchmark::DoNotOptimize(memory.page_count());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_PreloadSpan);

void BM_MeshBuild(benchmark::State& state) {
    // Set-up cost of a large mesh: build and tear down the topology of the
    // `mesh-contention-large` solo point (Arg = side) at 2 shards, as each
    // perfbench set-up pass does. Items are links built: two networks x a
    // forward and a reverse link per neighbor pair, 8·n·(n-1).
    const auto n = static_cast<std::int64_t>(state.range(0));
    const std::optional<scenario::ScenarioConfig> point = sweep_point(
        state, "mesh-contention-large", std::to_string(n) + "x" + std::to_string(n) + " solo");
    if (!point) { return; }
    scenario::ScenarioConfig cfg = *point;
    cfg.shards = 2;
    for (auto _ : state) {
        sim::SimContext ctx;
        ctx.set_shards(cfg.shards);
        benchmark::DoNotOptimize(scenario::make_topology(ctx, cfg));
    }
    state.SetItemsProcessed(state.iterations() * 8 * n * (n - 1));
}
BENCHMARK(BM_MeshBuild)->Arg(16)->Arg(32);

} // namespace

BENCHMARK_MAIN();
