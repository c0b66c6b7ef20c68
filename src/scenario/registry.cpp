#include "scenario/registry.hpp"

#include "sim/check.hpp"
#include "sim/rng.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>
#include <variant>

namespace realm::scenario {

namespace {

constexpr axi::Addr kDram = 0x8000'0000;
constexpr axi::Addr kSpm = 0x7000'0000;
constexpr axi::Addr kFigDmaSrc = 0x8010'0000;
constexpr std::uint64_t kFigDmaBlock = 0x4000; // 16 KiB double-buffered block

/// Shared skeleton of the Figure 6 experiments: Susan on the core under a
/// double-buffered 256-beat DSA-DMA on the Cheshire-like SoC with a hot LLC
/// (formerly `bench/fig6_common.hpp`).
struct Fig6Knobs {
    bool dma_active = true;
    std::uint32_t dma_fragment = 256;
    std::uint64_t dma_budget_bytes = 1ULL << 30;
    std::uint64_t core_budget_bytes = 1ULL << 30;
    std::uint64_t period_cycles = 1ULL << 20;
    bool throttle = false;
    sim::Cycle llc_request_interval = 1;
};

ScenarioConfig fig6_point(const Fig6Knobs& k) {
    ScenarioConfig cfg;
    auto& xbar = std::get<soc::SocConfig>(cfg.fabric);
    xbar.llc.max_outstanding = 4;
    xbar.llc.request_interval = k.llc_request_interval;

    cfg.victim.kind = VictimConfig::Kind::kSusan;
    cfg.victim.susan.width = 64;
    cfg.victim.susan.height = 48;
    cfg.victim.susan.mask_radius = 2;

    cfg.preload.push_back(PreloadSpan{kFigDmaSrc, kFigDmaBlock, 0x9E3779B9ULL, true});

    cfg.boot_plans.push_back(RegionPlan{k.core_budget_bytes, k.period_cycles, 256});
    cfg.boot_plans.push_back(
        RegionPlan{k.dma_budget_bytes, k.period_cycles, k.dma_fragment});
    cfg.throttle_dsa = k.throttle;

    if (k.dma_active) {
        InterferenceConfig irq;
        irq.dma.burst_beats = 256;
        irq.dma.num_buffers = 4;
        irq.dma.max_outstanding_reads = 4;
        irq.dma.max_outstanding_writes = 4;
        irq.src = kFigDmaSrc;
        irq.dst = kSpm;
        irq.bytes = kFigDmaBlock;
        irq.loop = true;
        cfg.interference.push_back(irq);
    }
    cfg.warmup_cycles = 3000;
    cfg.max_cycles = 60'000'000;
    return cfg;
}

std::string frag_label(std::uint32_t frag) {
    char buf[32];
    std::snprintf(buf, sizeof buf, frag == 256 ? "no-reserv. (256)" : "frag %u", frag);
    return buf;
}

Sweep make_fig6a() {
    Sweep s;
    s.name = "fig6a";
    s.title = "Figure 6a: Susan under DSA-DMA contention vs fragmentation size";
    s.notes = {"paper reference: without reservation < 0.7 % @ >= 264 cycles/access;",
               "fragmentation 1 -> 68.2 % of single-source @ < 10 cycles/access."};
    s.baseline_index = 0;
    Fig6Knobs base;
    base.dma_active = false;
    s.points.push_back({"single-source", fig6_point(base)});
    for (const std::uint32_t frag : {256U, 128U, 64U, 32U, 16U, 8U, 4U, 2U, 1U}) {
        Fig6Knobs k;
        k.dma_fragment = frag;
        s.points.push_back({frag_label(frag), fig6_point(k)});
    }
    return s;
}

Sweep make_fig6a_llc2() {
    Sweep s;
    s.name = "fig6a-llc2";
    s.title = "Figure 6a, alternative LLC calibration (descriptor interval 2)";
    s.baseline_index = 0;
    Fig6Knobs base;
    base.dma_active = false;
    base.llc_request_interval = 2;
    s.points.push_back({"single-source", fig6_point(base)});
    for (const std::uint32_t frag : {256U, 8U, 2U, 1U}) {
        Fig6Knobs k;
        k.dma_fragment = frag;
        k.llc_request_interval = 2;
        s.points.push_back({frag_label(frag), fig6_point(k)});
    }
    return s;
}

Sweep make_fig6b() {
    Sweep s;
    s.name = "fig6b";
    s.title = "Figure 6b: Susan performance vs core/DMA budget imbalance";
    s.notes = {"paper reference: reducing the DMA budget from 1/1 to 1/5 closes the",
               "gap to the single-source scenario: > 95 % performance, worst-case",
               "access latency below eight cycles."};
    s.baseline_index = 0;
    Fig6Knobs base;
    base.dma_active = false;
    s.points.push_back({"baseline", fig6_point(base)});
    const std::pair<const char*, std::uint64_t> points[] = {
        {"1/1", 8192}, {"1/2", 6554}, {"1/3", 4915}, {"1/4", 3277}, {"1/5", 1638},
    };
    for (const auto& [label, budget] : points) {
        Fig6Knobs k;
        k.dma_fragment = 1;
        k.dma_budget_bytes = budget;
        k.period_cycles = 1000;
        s.points.push_back({label, fig6_point(k)});
    }
    return s;
}

Sweep make_ablation_period() {
    Sweep s;
    s.name = "ablation-period";
    s.title = "Ablation: period selection at a fixed 20 % DMA share";
    s.notes = {"same average DMA bandwidth everywhere; the period picks where the",
               "interference lands: fine interleaving (short) vs long contended phases",
               "with a worse core latency tail (long)."};
    s.baseline_index = 0;
    Fig6Knobs base;
    base.dma_active = false;
    s.points.push_back({"baseline", fig6_point(base)});
    for (const std::uint64_t period : {100ULL, 1000ULL, 10000ULL, 100000ULL}) {
        Fig6Knobs k;
        k.dma_fragment = 1;
        k.period_cycles = period;
        k.dma_budget_bytes = period * 16 / 10; // 1.6 B/cycle share
        s.points.push_back({std::to_string(period), fig6_point(k)});
    }
    return s;
}

ScenarioConfig throttle_point(bool throttle) {
    ScenarioConfig cfg;
    std::get<soc::SocConfig>(cfg.fabric).llc.max_outstanding = 4;
    cfg.preload.push_back(PreloadSpan{kDram, 0x20000, 1, true});
    cfg.boot_plans.push_back(RegionPlan{1ULL << 30, 1ULL << 20, 256}); // core: free
    cfg.boot_plans.push_back(RegionPlan{4096, 2000, 8});               // DMA: budgeted
    cfg.throttle_dsa = throttle;

    InterferenceConfig irq;
    irq.dma.burst_beats = 64;
    irq.dma.num_buffers = 4;
    irq.dma.max_outstanding_reads = 4;
    irq.src = kDram + 0x10000;
    irq.dst = kSpm;
    irq.bytes = 0x4000;
    cfg.interference.push_back(irq);

    cfg.victim.kind = VictimConfig::Kind::kStream;
    cfg.victim.stream = {.base = kDram, .bytes = 0x8000, .op_bytes = 8,
                         .stride_bytes = 8, .repeat = 12};
    cfg.warmup_cycles = 0; // the original bench starts the victim immediately
    cfg.max_cycles = 10'000'000;
    return cfg;
}

Sweep make_ablation_throttle() {
    Sweep s;
    s.name = "ablation-throttle";
    s.title = "Ablation: throttling unit on a budgeted DMA (4 KiB / 2000 cycles)";
    s.notes = {"throttling converts hard isolation time into early backpressure",
               "(stalls) at equal average DMA bandwidth, smoothing the interference",
               "the core observes."};
    s.points.push_back({"throttle off", throttle_point(false)});
    s.points.push_back({"throttle on", throttle_point(true)});
    return s;
}

ScenarioConfig dos_point(bool write_buffer_enabled) {
    ScenarioConfig cfg;
    auto& xbar = std::get<soc::SocConfig>(cfg.fabric);
    xbar.realm.write_buffer_enabled = write_buffer_enabled;
    xbar.realm.write_buffer_depth = 16;
    cfg.preload.push_back(PreloadSpan{kDram, 0x10000, 1, true});
    // No boot script: the attack needs no regulation programmed, only the
    // write buffer's structural protection.

    InterferenceConfig attacker;
    attacker.hostile = true; // detector ground truth
    attacker.dma.burst_beats = 8;
    attacker.dma.reserve_before_data = true;
    attacker.dma.w_stall_cycles = 64;
    attacker.src = kDram + 0x8000;
    attacker.dst = kDram + 0xC000;
    attacker.bytes = 0x4000;
    cfg.interference.push_back(attacker);

    cfg.victim.kind = VictimConfig::Kind::kStream;
    cfg.victim.stream = {.base = kDram, .bytes = 0x2000, .op_bytes = 8,
                         .stride_bytes = 8, .store_ratio16 = 16};
    cfg.warmup_cycles = 500;
    cfg.max_cycles = 10'000'000;
    return cfg;
}

Sweep make_ablation_dos() {
    Sweep s;
    s.name = "ablation-dos";
    s.title = "Ablation: write buffer vs the stalling-manager DoS attack";
    s.notes = {"paper: the buffer forwards AW and W only once the write data is",
               "fully contained within the buffer."};
    s.points.push_back({"wbuf disabled", dos_point(false)});
    s.points.push_back({"wbuf enabled", dos_point(true)});
    return s;
}

Sweep make_random_mix() {
    Sweep s;
    s.name = "random-mix";
    s.title = "Random-access victim under budgeted DMA interference";
    s.notes = {"per-point workloads are seeded from derive_seed(sweep, index), so",
               "results are identical regardless of runner thread count."};
    s.baseline_index = 0;
    for (const std::uint32_t frag : {256U, 16U, 1U}) {
        ScenarioConfig cfg;
        std::get<soc::SocConfig>(cfg.fabric).llc.max_outstanding = 4;
        cfg.preload.push_back(PreloadSpan{kDram, 0x20000, 3, true});
        cfg.boot_plans.push_back(RegionPlan{1ULL << 30, 1ULL << 20, 256});
        cfg.boot_plans.push_back(RegionPlan{4000, 1000, frag});
        InterferenceConfig irq;
        irq.dma.burst_beats = 256;
        irq.dma.num_buffers = 4;
        irq.dma.max_outstanding_reads = 4;
        irq.src = kDram + 0x10000;
        irq.dst = kSpm;
        irq.bytes = 0x4000;
        cfg.interference.push_back(irq);
        cfg.victim.kind = VictimConfig::Kind::kRandom;
        // No .seed here: run_scenario always seeds the random victim from
        // the derived per-point seed.
        cfg.victim.random = {.base = kDram, .bytes = 0x10000, .op_bytes = 8,
                             .compute_cycles = 0, .store_ratio16 = 4,
                             .num_ops = 4000};
        cfg.max_cycles = 10'000'000;
        s.points.push_back({frag_label(frag), cfg});
    }
    return s;
}

Sweep make_idle_tail() {
    Sweep s;
    s.name = "idle-tail";
    s.title = "Idle-heavy scenario: short Susan burst, long quiescent tail";
    s.notes = {"the victim finishes early and the simulation idles for 2M cycles;",
               "the activity-aware kernel fast-forwards the tail."};
    for (const bool activity : {false, true}) {
        ScenarioConfig cfg;
        cfg.victim.kind = VictimConfig::Kind::kSusan;
        cfg.victim.susan.width = 32;
        cfg.victim.susan.height = 24;
        cfg.victim.susan.mask_radius = 2;
        InterferenceConfig irq; // finite copy: drains, then everything sleeps
        irq.dma.burst_beats = 64;
        irq.src = kDram + 0x10000;
        irq.dst = kSpm;
        irq.bytes = 0x2000;
        irq.loop = false;
        cfg.interference.push_back(irq);
        cfg.preload.push_back(PreloadSpan{kDram + 0x10000, 0x2000, 5, true});
        cfg.boot_plans.push_back(RegionPlan{1ULL << 30, 1ULL << 20, 256});
        cfg.boot_plans.push_back(RegionPlan{1ULL << 30, 1ULL << 20, 16});
        cfg.warmup_cycles = 100;
        cfg.max_cycles = 10'000'000;
        cfg.cooldown_cycles = 2'000'000;
        cfg.scheduler = activity ? sim::Scheduler::kActivity : sim::Scheduler::kTickAll;
        s.points.push_back({activity ? "activity kernel" : "tick-all kernel", cfg});
    }
    return s;
}

// ---------------------------------------------------------------------------
// NoC sweeps: multi-manager contention cells, shared across all three
// fabrics (crossbar / ring / mesh) so the DoS matrix is fabric-comparative.
// ---------------------------------------------------------------------------

/// How an attacker DMA misbehaves.
enum class DosAttack : std::uint8_t {
    kHog,       ///< 256-beat bursts: burst-granular arbitration damage
    kOverdraft, ///< deeply pipelined sustained demand far beyond any budget
    kWStall,    ///< AW first, data trickled: reserves the memory-side W
                ///< channel (the stalling-manager DoS)
};

/// What the REALM units on the attacker ports are programmed to do.
enum class DosDefense : std::uint8_t { kNone, kFragmentation, kBudget, kThrottle };

constexpr const char* dos_attack_name(DosAttack a) {
    switch (a) {
    case DosAttack::kHog: return "hog";
    case DosAttack::kOverdraft: return "overdraft";
    case DosAttack::kWStall: return "wstall";
    }
    return "?";
}

constexpr const char* dos_defense_name(DosDefense d) {
    switch (d) {
    case DosDefense::kNone: return "none";
    case DosDefense::kFragmentation: return "frag";
    case DosDefense::kBudget: return "budget";
    case DosDefense::kThrottle: return "throttle";
    }
    return "?";
}

/// A ring of `num_nodes` nodes, roles not yet placed.
FabricConfig ring_fabric(noc::NodeId num_nodes) {
    RingTopologyConfig ring;
    ring.num_nodes = num_nodes;
    return ring;
}

/// A `rows` x `cols` mesh under `routing`, roles not yet placed.
FabricConfig mesh_fabric(noc::NodeId rows, noc::NodeId cols,
                         noc::RoutingPolicy routing = noc::RoutingPolicy::kXY) {
    MeshTopologyConfig mesh;
    mesh.rows = rows;
    mesh.cols = cols;
    mesh.routing = routing;
    return mesh;
}

struct DosKnobs {
    /// The fabric and its shape (ring size, mesh dimensions and routing);
    /// `dos_point` places the roles.
    FabricConfig fabric;
    noc::NodeId attackers = 1;
    DosAttack attack = DosAttack::kHog;
    DosDefense defense = DosDefense::kNone;
    std::uint64_t victim_bytes = 0x1000;
    /// Labels the mesh's routing policy; only the routing sweeps do, so the
    /// other matrices keep their labels (and resume keys).
    bool label_routing = false;
};

/// One DoS cell: a stream victim reading (and lightly writing) the shared
/// memory while `attackers` DMAs interfere, every manager port behind a
/// REALM unit. On the NoC fabrics the roles follow the canonical
/// `make_ring_roles` / `make_mesh_roles` layout — two memory nodes, the
/// shared one at 0x0 and a spill node at 0x10'0000; on the crossbar the
/// same access pattern lands in DRAM behind the LLC, shifted to the DRAM
/// base. Cell labels and traffic knobs are identical across fabrics, so the
/// three matrices compare one regulation story on three interconnects.
ScenarioConfig dos_point(const DosKnobs& k) {
    ScenarioConfig cfg;
    cfg.fabric = k.fabric;
    NocTopologyConfig* const noc = noc_config(cfg.fabric);
    auto* const xbar = std::get_if<soc::SocConfig>(&cfg.fabric);
    const axi::Addr fabric_base = xbar != nullptr ? 0x8000'0000 : 0x0;
    const axi::Addr kShared = fabric_base;
    const axi::Addr kSpill = fabric_base + 0x10'0000;

    if (auto* ring = std::get_if<RingTopologyConfig>(&cfg.fabric)) {
        ring->nodes = make_ring_roles(ring->num_nodes, k.attackers, 2);
    } else if (auto* mesh = std::get_if<MeshTopologyConfig>(&cfg.fabric)) {
        mesh->nodes = make_mesh_roles(mesh->rows, mesh->cols, k.attackers, 2);
    } else {
        xbar->num_dsa = std::max<std::uint32_t>(k.attackers, 1);
        xbar->llc.max_outstanding = 4;
    }
    // Defense "none" exposes the structural W-reservation vector too: the
    // write buffer is the unit's always-on protection, so strip it from the
    // *attackers'* units to model an unprotected fabric (cf. the
    // `ablation-dos` pair). On the NoC fabrics the victim's unit stays
    // constant across cells so defense columns compare the same victim
    // configuration; the crossbar SoC has one unit template, so there the
    // strip applies to every unit (noted per sweep).
    if (k.defense == DosDefense::kNone) {
        if (noc != nullptr) {
            rt::RealmUnitConfig unprotected = noc->realm;
            unprotected.write_buffer_enabled = false;
            for (auto& node : noc->nodes) {
                if (node.role == RingRole::kInterference) {
                    node.realm_config = unprotected;
                }
            }
        } else {
            xbar->realm.write_buffer_enabled = false;
        }
    }

    cfg.victim.kind = VictimConfig::Kind::kStream;
    cfg.victim.stream = {.base = kShared, .bytes = k.victim_bytes, .op_bytes = 8,
                         .stride_bytes = 8, .store_ratio16 = 4, .repeat = 2};

    // Victim working set plus the attacker read blocks on the shared node;
    // a smaller pattern block on the spill node feeds the W-stall attack.
    cfg.preload.push_back(PreloadSpan{kShared, 0x10000, 1, false});
    cfg.preload.push_back(PreloadSpan{kSpill, 0x4000, 7, false});

    for (noc::NodeId i = 0; i < k.attackers; ++i) {
        // Hundreds of attackers (mesh-contention-large) reuse 24 distinct
        // stream offsets so every src/dst stays inside the 128 KiB memory
        // spans; the legacy matrices never exceed 9 attackers, so their
        // addresses are unchanged.
        const axi::Addr slot = i % 24;
        InterferenceConfig irq;
        irq.hostile = true; // detector ground truth: every DoS cell attacker
        switch (k.attack) {
        case DosAttack::kHog:
            irq.dma.burst_beats = 256;
            irq.dma.num_buffers = 2;
            irq.src = kShared + 0x8000 + slot * 0x800;
            irq.dst = kSpill + 0x4000 + slot * 0x1000;
            break;
        case DosAttack::kOverdraft:
            irq.dma.burst_beats = 64;
            irq.dma.num_buffers = 4;
            irq.dma.max_outstanding_reads = 4;
            irq.dma.max_outstanding_writes = 4;
            irq.src = kShared + 0x8000 + slot * 0x800;
            irq.dst = kSpill + 0x4000 + slot * 0x1000;
            break;
        case DosAttack::kWStall:
            irq.dma.burst_beats = 8;
            irq.dma.reserve_before_data = true;
            irq.dma.w_stall_cycles = 64;
            irq.src = kSpill + slot * 0x400;
            irq.dst = kShared + 0xC000 + slot * 0x400;
            break;
        }
        irq.bytes = 0x1000;
        irq.loop = true;
        cfg.interference.push_back(irq);
    }

    // Config path: plan 0 = victim unit (always free), plan 1+i = attacker
    // unit i. The NoC fabrics place one unit per attacker; the crossbar SoC
    // builds `num_dsa` units, one even without an attacker, and its boot
    // script programs every unit it builds.
    const std::uint32_t attacker_units = xbar != nullptr ? xbar->num_dsa : k.attackers;
    const auto plan_attackers = [&](const RegionPlan& plan) {
        cfg.boot_plans.push_back(RegionPlan{1ULL << 30, 1ULL << 20, 256}); // victim
        for (std::uint32_t i = 0; i < attacker_units; ++i) { cfg.boot_plans.push_back(plan); }
    };
    switch (k.defense) {
    case DosDefense::kNone: break; // unregulated (and no write buffer)
    case DosDefense::kFragmentation:
        plan_attackers(RegionPlan{1ULL << 30, 1ULL << 20, 2});
        break;
    case DosDefense::kBudget:
        plan_attackers(RegionPlan{1024, 2000, 2});
        break;
    case DosDefense::kThrottle:
        plan_attackers(RegionPlan{1024, 2000, 2});
        cfg.throttle_dsa = true;
        break;
    }

    cfg.warmup_cycles = 2000;
    cfg.max_cycles = 5'000'000;
    return cfg;
}

std::string dos_cell_label(const DosKnobs& k) {
    char buf[64];
    if (k.label_routing) {
        std::snprintf(buf, sizeof buf, "%uatk/%s/%s/%s",
                      static_cast<unsigned>(k.attackers), dos_attack_name(k.attack),
                      dos_defense_name(k.defense),
                      noc::to_string(std::get<MeshTopologyConfig>(k.fabric).routing));
    } else {
        std::snprintf(buf, sizeof buf, "%uatk/%s/%s",
                      static_cast<unsigned>(k.attackers), dos_attack_name(k.attack),
                      dos_defense_name(k.defense));
    }
    return buf;
}


/// The single source of truth for the full-matrix cell grid (attackers x
/// attack mode x defense). Both the per-fabric matrices and the
/// routing-policy study iterate this grid, so the cells can never drift
/// apart.
template <typename Emit>
void for_each_matrix_cell(Emit&& emit) {
    for (const std::uint8_t attackers :
         {std::uint8_t{1}, std::uint8_t{3}, std::uint8_t{9}}) {
        for (const DosAttack attack :
             {DosAttack::kHog, DosAttack::kOverdraft, DosAttack::kWStall}) {
            for (const DosDefense defense :
                 {DosDefense::kNone, DosDefense::kFragmentation, DosDefense::kBudget,
                  DosDefense::kThrottle}) {
                emit(attackers, attack, defense);
            }
        }
    }
    // No-attack baselines, one per defense (appended so the legacy cells
    // keep their point order). The attack knob is irrelevant with zero
    // attackers and stays "hog" only to satisfy the label grammar; these
    // points are the false-positive ground for the monitoring plane.
    for (const DosDefense defense :
         {DosDefense::kNone, DosDefense::kFragmentation, DosDefense::kBudget,
          DosDefense::kThrottle}) {
        emit(std::uint8_t{0}, DosAttack::kHog, defense);
    }
}

/// The CI-sized 2x2x2 smoke cell grid, shared the same way.
template <typename Emit>
void for_each_smoke_cell(Emit&& emit) {
    for (const std::uint8_t attackers : {std::uint8_t{1}, std::uint8_t{2}}) {
        for (const DosAttack attack : {DosAttack::kHog, DosAttack::kWStall}) {
            for (const DosDefense defense : {DosDefense::kNone, DosDefense::kBudget}) {
                emit(attackers, attack, defense);
            }
        }
    }
    // No-attack baselines (cf. for_each_matrix_cell).
    for (const DosDefense defense : {DosDefense::kNone, DosDefense::kBudget}) {
        emit(std::uint8_t{0}, DosAttack::kHog, defense);
    }
}

/// The full 3x3x4 DoS matrix (attackers x attack mode x defense) on one
/// fabric; every fabric runs the same cells with the same labels.
Sweep make_dos_matrix(const FabricConfig& fabric, std::string name, std::string title,
                      std::vector<std::string> notes) {
    Sweep s;
    s.name = std::move(name);
    s.title = std::move(title);
    s.notes = std::move(notes);
    for_each_matrix_cell([&](std::uint8_t attackers, DosAttack attack,
                             DosDefense defense) {
        const DosKnobs k{.fabric = fabric, .attackers = attackers,
                         .attack = attack, .defense = defense};
        s.points.push_back({dos_cell_label(k), dos_point(k)});
    });
    return s;
}

/// CI-sized 2x2x2 cross-section of the matrix on one (small) fabric, with
/// a small victim working set.
Sweep make_dos_smoke(const FabricConfig& fabric, std::string name, std::string title,
                     std::vector<std::string> notes) {
    Sweep s;
    s.name = std::move(name);
    s.title = std::move(title);
    s.notes = std::move(notes);
    for_each_smoke_cell([&](std::uint8_t attackers, DosAttack attack,
                            DosDefense defense) {
        const DosKnobs k{.fabric = fabric, .attackers = attackers, .attack = attack,
                         .defense = defense, .victim_bytes = 0x800};
        s.points.push_back({dos_cell_label(k), dos_point(k)});
    });
    return s;
}

/// The solo / hog / budget triple of a contention sweep on `k`'s fabric:
/// no attacker, `attackers` 256-beat hogs, and the same hogs budgeted,
/// labelled `<size> solo<tail>`, `<size> hog<n><tail>` and
/// `<size> budget<n><tail>`, where `<n>` is the attacker count when
/// `count_in_label` is set and empty otherwise.
void push_contention_triple(Sweep& s, DosKnobs k, noc::NodeId attackers,
                            const std::string& size, const std::string& tail = "",
                            bool count_in_label = false) {
    const std::string n = count_in_label ? std::to_string(attackers) : "";
    k.attackers = 0;
    s.points.push_back({size + " solo" + tail, dos_point(k)});
    k.attackers = attackers;
    k.attack = DosAttack::kHog;
    s.points.push_back({size + " hog" + n + tail, dos_point(k)});
    k.defense = DosDefense::kBudget;
    s.points.push_back({size + " budget" + n + tail, dos_point(k)});
}

/// `rows` x `cols`, as the mesh contention labels spell a size.
std::string mesh_size(noc::NodeId rows, noc::NodeId cols) {
    return std::to_string(rows) + "x" + std::to_string(cols);
}

Sweep make_ring_contention() {
    Sweep s;
    s.name = "ring-contention";
    s.title = "Ring NoC scaling: victim latency vs ring size under 2-attacker contention";
    s.notes = {"per size: uncontended reference, 256-beat hog attackers, and the",
               "same attackers budgeted to 0.5 B/cycle each. Idle hops cost nothing",
               "under the activity-aware kernel, so rings scale to dozens of nodes."};
    s.baseline_index = 0;
    for (const noc::NodeId nodes : {6, 12, 24, 48}) {
        push_contention_triple(s, DosKnobs{.fabric = ring_fabric(nodes)}, 2,
                               "N=" + std::to_string(nodes));
    }
    return s;
}

Sweep make_mesh_contention() {
    Sweep s;
    s.name = "mesh-contention";
    s.title = "Mesh NoC scaling: victim latency vs mesh size under 2-attacker contention";
    s.notes = {"same cells as ring-contention on 2x3 ... 6x8 meshes (6-48 nodes):",
               "uncontended reference, 256-beat hog attackers, and the same attackers",
               "budgeted. XY routing spreads the flows over multiple paths, so the",
               "contention the victim sees concentrates at the memory-column merge."};
    s.baseline_index = 0;
    const std::pair<noc::NodeId, noc::NodeId> sizes[] = {{2, 3}, {3, 4}, {4, 6}, {6, 8}};
    for (const auto& [rows, cols] : sizes) {
        push_contention_triple(s, DosKnobs{.fabric = mesh_fabric(rows, cols)}, 2,
                               mesh_size(rows, cols));
    }
    return s;
}

/// The sharded-kernel stress extension of `mesh-contention`: 16x16 and
/// 32x32 fabrics where *hundreds* of nodes host interference managers, the
/// regime the column-stripe shards exist for (run with `--shards N` to
/// split the tick work across workers; results are bit-identical for every
/// shard count). A separate sweep so the legacy 2x3..6x8 baselines and CI
/// budgets stay untouched.
Sweep make_mesh_contention_large() {
    Sweep s;
    s.name = "mesh-contention-large";
    s.title = "Large-mesh contention: 16x16 / 32x32 fabrics, hundreds of managers";
    s.notes = {"per size: uncontended reference, hog attackers on roughly half the",
               "nodes (128 / 256 managers), and the same attackers budgeted. The",
               "attackers reuse 24 stream offsets, so the cells measure fabric-scale",
               "contention, not working-set growth. Sized for the sharded kernel:",
               "--shards 4 on a 16x16 splits the column stripes across workers."};
    s.baseline_index = 0;
    struct LargeSize {
        noc::NodeId rows, cols, attackers;
    };
    const LargeSize sizes[] = {{16, 16, 128}, {32, 32, 256}};
    for (const auto& [rows, cols, attackers] : sizes) {
        push_contention_triple(
            s, DosKnobs{.fabric = mesh_fabric(rows, cols), .victim_bytes = 0x800}, attackers,
            mesh_size(rows, cols), "", /*count_in_label=*/true);
    }
    for (SweepPoint& p : s.points) { p.config.max_cycles = 600'000; }
    return s;
}

Sweep make_ring_dos_matrix() {
    return make_dos_matrix(
        ring_fabric(24), "ring-dos-matrix",
        "Multi-manager DoS matrix on a 24-node ring: attackers x attack mode x defense",
        {"cells report the worst-case victim latency (load_lat_max /",
         "store_lat_max in the JSON dump); 'none' also strips the attackers'",
         "write buffers, so wstall shows the raw W-reservation DoS of [14]."});
}

Sweep make_mesh_dos_matrix() {
    return make_dos_matrix(
        mesh_fabric(4, 6), "mesh-dos-matrix",
        "Multi-manager DoS matrix on a 4x6 mesh: attackers x attack mode x defense",
        {"same cells as ring-dos-matrix on a 24-node XY-routed mesh; multi-path",
         "contention concentrates at the memory nodes' merge routers, the regime",
         "where per-manager budgets and burst fragmentation matter most."});
}

Sweep make_xbar_dos_matrix() {
    return make_dos_matrix(
        soc::SocConfig{}, "xbar-dos-matrix",
        "Multi-manager DoS matrix on the Cheshire crossbar: "
        "attackers x attack mode x defense",
        {"same cells as ring-dos-matrix on the crossbar SoC (attackers on DSA",
         "ports, shared span in DRAM behind the LLC). The SoC has one unit",
         "template, so 'none' strips the write buffer on every unit, victim",
         "included."});
}

Sweep make_ring_dos_smoke() {
    return make_dos_smoke(ring_fabric(8), "ring-dos-smoke",
                          "Ring DoS matrix, CI-sized: 8 nodes, 2x2x2 cells",
                          {"small cross-section of ring-dos-matrix for CI and tests."});
}

/// The smoke cells re-run with deliberately tight credited-transport knobs:
/// a VC barely holding one worm, a small end-to-end pool, and a non-zero
/// credit-return delay (returns ride the response network). This is the
/// regime where wormhole serialization and credit exhaustion dominate —
/// head-of-line blocking, back-pressured injection — and where a
/// flow-control bug would deadlock. CI runs these next to the default
/// smokes precisely because the bounds are enforced by assertion: a credit
/// leak or buffer overrun aborts the run instead of skewing a number.
Sweep make_credit_smoke(const FabricConfig& fabric, std::string name, std::string title) {
    Sweep s = make_dos_smoke(
        fabric, std::move(name), std::move(title),
        {"tight credited flow control: flits_per_packet 4, vc_depth 4 (one",
         "worm), e2e_credits 8, credit_return_delay 4 — worst-case",
         "serialization and credit back-pressure; every buffer bound",
         "asserted, deadlock-free required."});
    for (SweepPoint& p : s.points) {
        NocTopologyConfig& noc = *noc_config(p.config.fabric);
        noc.flits_per_packet = 4;
        noc.vc_depth = 4;
        noc.e2e_credits = 8;
        noc.credit_return_delay = 4;
    }
    return s;
}

Sweep make_ring_credit_smoke() {
    return make_credit_smoke(ring_fabric(8), "ring-credit-dos-smoke",
                             "Ring DoS smoke under tight credits: 8 nodes, "
                             "vc_depth=4, e2e_credits=8");
}

Sweep make_mesh_credit_smoke() {
    return make_credit_smoke(mesh_fabric(2, 4), "mesh-credit-dos-smoke",
                             "Mesh DoS smoke under tight credits: 2x4 mesh, "
                             "vc_depth=4, e2e_credits=8");
}

Sweep make_mesh_dos_smoke() {
    return make_dos_smoke(mesh_fabric(2, 4), "mesh-dos-smoke",
                          "Mesh DoS matrix, CI-sized: 2x4 mesh, 2x2x2 cells",
                          {"small cross-section of mesh-dos-matrix for CI and tests."});
}

Sweep make_xbar_dos_smoke() {
    return make_dos_smoke(soc::SocConfig{}, "xbar-dos-smoke",
                          "Crossbar DoS matrix, CI-sized: 2x2x2 cells",
                          {"small cross-section of xbar-dos-matrix for CI and tests."});
}

Sweep make_mesh_search_smoke() {
    return make_dos_smoke(
        mesh_fabric(4, 4), "mesh-search-smoke",
        "Mesh DoS matrix for adversarial search, CI-sized: 4x4 mesh, 2x2x2 cells",
        {"the mesh-dos-smoke cells on a square 4x4 mesh — the enumerated grid",
         "the scenario_search bench compares its searched attackers against."});
}

// ---------------------------------------------------------------------------
// Routing-policy sweeps: every mesh DoS cell under all four routing
// policies (XY / YX / O1TURN / west-first), labelled
// <N>atk/<attack>/<defense>/<policy> so the matrix report renders the
// policy as a row dimension. This converts the single-fabric DoS matrix
// into a routing-freedom study: how much does fabric freedom buy the
// victim under the same regulation budget?
// ---------------------------------------------------------------------------

/// The full 3x3x4 DoS matrix x 4 routing policies on the 4x6 mesh.
Sweep make_mesh_routing_dos_matrix() {
    Sweep s;
    s.name = "mesh-routing-dos-matrix";
    s.title = "Mesh DoS matrix x routing policy (XY / YX / O1TURN / west-first)";
    s.notes = {"the same attackers x attack x defense cells as mesh-dos-matrix,",
               "run under all four routing policies on the same 4x6 mesh: XY/YX",
               "concentrate merges on columns/rows, O1TURN randomizes per worm",
               "(two VCs), west-first adapts by link occupancy. Cells report the",
               "worst-case victim latency; per-policy rows are comparable cell",
               "by cell."};
    for (const noc::RoutingPolicy routing : noc::kAllRoutingPolicies) {
        for_each_matrix_cell([&](std::uint8_t attackers, DosAttack attack,
                                 DosDefense defense) {
            const DosKnobs k{.fabric = mesh_fabric(4, 6, routing), .attackers = attackers,
                             .attack = attack, .defense = defense, .label_routing = true};
            ScenarioConfig cfg = dos_point(k);
            // The undefended 9-attacker cells are legitimately an order of
            // magnitude slower under the multi-path policies (reorder
            // round trips, row/column spread); give them headroom so a
            // harness timeout never reads as a deadlock.
            cfg.max_cycles = 30'000'000;
            s.points.push_back({dos_cell_label(k), std::move(cfg)});
        });
    }
    return s;
}

/// CI-sized cross-section: the 2x2x2 smoke cells under all four policies.
Sweep make_mesh_routing_dos_smoke() {
    Sweep s;
    s.name = "mesh-routing-dos-smoke";
    s.title = "Mesh routing-policy DoS smoke: 2x4 mesh, 2x2x2 cells x 4 policies";
    s.notes = {"small cross-section of mesh-routing-dos-matrix for CI: every",
               "policy must complete the same cells without deadlock, and the",
               "defended cells must beat the undefended ones under each policy."};
    for (const noc::RoutingPolicy routing : noc::kAllRoutingPolicies) {
        for_each_smoke_cell([&](std::uint8_t attackers, DosAttack attack,
                                DosDefense defense) {
            const DosKnobs k{.fabric = mesh_fabric(2, 4, routing), .attackers = attackers,
                             .attack = attack, .defense = defense,
                             .victim_bytes = 0x800, .label_routing = true};
            s.points.push_back({dos_cell_label(k), dos_point(k)});
        });
    }
    return s;
}

/// Contention scaling x routing policy: how each policy spreads two hog
/// attackers as the mesh grows.
Sweep make_mesh_routing_contention() {
    Sweep s;
    s.name = "mesh-routing-contention";
    s.title = "Mesh contention scaling x routing policy (2 hog attackers)";
    s.notes = {"per size and policy: uncontended reference, 256-beat hog",
               "attackers, and the same attackers budgeted — mesh-contention",
               "with the routing policy as an extra axis. The flat report",
               "carries the policy in the point label."};
    s.baseline_index = 0;
    const std::pair<noc::NodeId, noc::NodeId> sizes[] = {{2, 3}, {4, 6}};
    for (const noc::RoutingPolicy routing : noc::kAllRoutingPolicies) {
        for (const auto& [rows, cols] : sizes) {
            push_contention_triple(s, DosKnobs{.fabric = mesh_fabric(rows, cols, routing)}, 2,
                                   mesh_size(rows, cols),
                                   std::string{" "} + noc::to_string(routing));
        }
    }
    return s;
}

using Factory = Sweep (*)();

const std::vector<std::pair<std::string, Factory>>& factories() {
    static const std::vector<std::pair<std::string, Factory>> kFactories = {
        {"fig6a", &make_fig6a},
        {"fig6a-llc2", &make_fig6a_llc2},
        {"fig6b", &make_fig6b},
        {"ablation-period", &make_ablation_period},
        {"ablation-throttle", &make_ablation_throttle},
        {"ablation-dos", &make_ablation_dos},
        {"random-mix", &make_random_mix},
        {"idle-tail", &make_idle_tail},
        {"ring-contention", &make_ring_contention},
        {"ring-dos-matrix", &make_ring_dos_matrix},
        {"ring-dos-smoke", &make_ring_dos_smoke},
        {"ring-credit-dos-smoke", &make_ring_credit_smoke},
        {"mesh-credit-dos-smoke", &make_mesh_credit_smoke},
        {"mesh-contention", &make_mesh_contention},
        {"mesh-contention-large", &make_mesh_contention_large},
        {"mesh-dos-matrix", &make_mesh_dos_matrix},
        {"mesh-dos-smoke", &make_mesh_dos_smoke},
        {"mesh-search-smoke", &make_mesh_search_smoke},
        {"mesh-routing-dos-matrix", &make_mesh_routing_dos_matrix},
        {"mesh-routing-dos-smoke", &make_mesh_routing_dos_smoke},
        {"mesh-routing-contention", &make_mesh_routing_contention},
        {"xbar-dos-matrix", &make_xbar_dos_matrix},
        {"xbar-dos-smoke", &make_xbar_dos_smoke},
    };
    return kFactories;
}

} // namespace

std::vector<std::string> sweep_names() {
    std::vector<std::string> names;
    names.reserve(factories().size());
    for (const auto& [name, factory] : factories()) { names.push_back(name); }
    return names;
}

bool has_sweep(const std::string& name) {
    for (const auto& [known, factory] : factories()) {
        if (known == name) { return true; }
    }
    return false;
}

Sweep make_sweep(const std::string& name) {
    for (const auto& [known, factory] : factories()) {
        if (known != name) { continue; }
        Sweep sweep = factory();
        for (std::size_t i = 0; i < sweep.points.size(); ++i) {
            sweep.points[i].config.seed = sim::derive_seed(sweep.name, i);
            if (sweep.points[i].config.name == "scenario") {
                sweep.points[i].config.name = sweep.name + "/" + sweep.points[i].label;
            }
        }
        return sweep;
    }
    REALM_EXPECTS(false, "unknown sweep: " + name);
    return {};
}

} // namespace realm::scenario
