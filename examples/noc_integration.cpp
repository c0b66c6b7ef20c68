/// \file
/// \brief Figure 1b of the paper: REALM units in front of a NoC.
///
/// The same scenario engine that drives the crossbar SoC experiments builds
/// a 6-node unidirectional ring here — a `RingTopologyConfig` with per-node
/// role assignment — and regulates a bulk DMA's long bursts in front of its
/// manager port. Regulation is interconnect-agnostic: the `ScenarioConfig`
/// differs from the crossbar ones only in its `fabric` field. Exits 1
/// unless regulation lowers the victim's worst-case load latency.
#include "scenario/scenario.hpp"
#include "scenario/topology.hpp"

#include <cstdint>
#include <cstdio>

using namespace realm;
using namespace realm::scenario;

namespace {

/// 6-node ring, canonical layout: victim core at node 0, one interference
/// DMA, two memory nodes (shared at 0x0, spill at 0x10'0000), pass-through
/// hops elsewhere; every manager node behind a REALM unit.
ScenarioConfig ring_scenario(bool regulate_dsa) {
    ScenarioConfig cfg;
    cfg.name = regulate_dsa ? "ring/regulated" : "ring/uncontrolled";
    auto& ring = cfg.fabric.emplace<RingTopologyConfig>();
    ring.num_nodes = 6;
    ring.nodes = make_ring_roles(6, /*num_attackers=*/1);

    cfg.victim.kind = VictimConfig::Kind::kStream;
    cfg.victim.stream = {.base = 0x0, .bytes = 0x2000, .op_bytes = 8,
                         .stride_bytes = 8};
    cfg.preload.push_back(PreloadSpan{0x0, 0x10000, 1, false});

    InterferenceConfig dma; // 128-beat bulk copy hammering the shared node
    dma.dma.burst_beats = 128;
    dma.src = 0x8000;
    dma.dst = 0x10'0000;
    dma.bytes = 0x4000;
    dma.loop = true;
    cfg.interference.push_back(dma);

    if (regulate_dsa) {
        // Config path: plan 0 = victim (free), plan 1 = the DSA — fragment
        // to 2 beats and cap at 2 B/cycle of the shared memory bandwidth.
        cfg.boot_plans.push_back(RegionPlan{1ULL << 30, 1ULL << 20, 256});
        cfg.boot_plans.push_back(RegionPlan{2000, 1000, 2});
    }
    cfg.warmup_cycles = 2000;
    cfg.max_cycles = 10'000'000;
    return cfg;
}

} // namespace

int main() {
    std::puts("== REALM over a 6-node ring NoC (Figure 1b) ==\n");

    std::uint64_t worst[2] = {};
    for (const bool regulated : {false, true}) {
        const ScenarioResult res = run_scenario(ring_scenario(regulated));
        worst[regulated ? 1 : 0] = res.load_lat_max;
        std::printf("%-28s load latency mean %.1f, max %llu cycles\n",
                    regulated ? "fragmented + budgeted DSA" : "uncontrolled (128-beat DMA)",
                    res.load_lat_mean,
                    static_cast<unsigned long long>(res.load_lat_max));
        std::printf("%-28s ring forwarded %llu packets, DMA %.2f B/cycle, "
                    "%llu depletions\n\n",
                    "", static_cast<unsigned long long>(res.fabric_hops),
                    res.dma_read_bw,
                    static_cast<unsigned long long>(res.dma_depletions));
    }

    std::puts("the same REALM unit regulates a NoC exactly as it does a crossbar —");
    std::puts("the paper's implementation-agnostic claim, now one ScenarioConfig field.");
    if (worst[1] >= worst[0]) {
        std::fputs("error: regulation did not lower the worst-case load latency\n", stderr);
        return 1;
    }
    return 0;
}
