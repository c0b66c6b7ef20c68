/// Randomized end-to-end property tests: several managers drive random
/// traffic through REALM units into a crossbar, with AXI protocol checkers
/// spliced on *both* sides of every REALM unit. Invariants, for every seed
/// and fragmentation setting:
///   - no protocol violation anywhere (parent side or fragmented side);
///   - every issued transaction completes (checker counts match);
///   - the DMA's copied block is byte-identical at the destination;
///   - regulated managers never exceed budget/period bandwidth.
#include "axi/checker.hpp"
#include "ic/xbar.hpp"
#include "mem/axi_mem_slave.hpp"
#include "mem/error_slave.hpp"
#include "mon/txn_monitor.hpp"
#include "realm/realm_unit.hpp"
#include "scenario/registry.hpp"
#include "scenario/search.hpp"
#include "scenario/topology.hpp"
#include "sim/rng.hpp"
#include "traffic/core.hpp"
#include "traffic/dma.hpp"
#include "traffic/injector.hpp"
#include "traffic/workload.hpp"

#include "same_result.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <variant>
#include <vector>

namespace realm {
namespace {

struct ManagerChain {
    std::unique_ptr<axi::AxiChannel> mgr_side;    // manager -> parent checker, tapped by the monitor
    std::unique_ptr<axi::AxiChannel> realm_up;    // parent checker -> realm
    std::unique_ptr<axi::AxiChannel> realm_down;  // realm -> checker (resp passthrough)
    std::unique_ptr<axi::AxiChannel> chk_out;     // checker -> xbar
    std::unique_ptr<axi::AxiChecker> parent_checker; // the manager's own bursts
    std::unique_ptr<axi::AxiChecker> checker;        // the unit's fragments
    std::unique_ptr<rt::RealmUnit> realm;
    std::unique_ptr<mon::TxnMonitor> monitor;
};

/// Topology: manager -> checker -> REALM -> checker -> xbar -> SRAMs, with a
/// transaction monitor tapping the manager's port.
class FuzzBench {
public:
    FuzzBench(std::uint32_t num_managers, const rt::RealmUnitConfig& rcfg) {
        ic::AddrMap map;
        map.add(0x0000'0000, 0x10000, 0, "mem0");
        map.add(0x0001'0000, 0x10000, 1, "mem1");

        std::vector<axi::AxiChannel*> xbar_mgrs;
        for (std::uint32_t m = 0; m < num_managers; ++m) {
            auto chain = std::make_unique<ManagerChain>();
            std::string n = "m"; // appended: `"m" + to_string` trips GCC 12's -Wrestrict
            n += std::to_string(m);
            chain->mgr_side = std::make_unique<axi::AxiChannel>(ctx, n + ".port");
            chain->realm_up = std::make_unique<axi::AxiChannel>(ctx, n + ".up");
            chain->realm_down =
                std::make_unique<axi::AxiChannel>(ctx, n + ".down", 2, true);
            chain->chk_out = std::make_unique<axi::AxiChannel>(ctx, n + ".chk");
            // Checkers record violations (the test counts them); this one is
            // constructed before the REALM unit so the unit's
            // response-passthrough sees same-cycle pushes.
            chain->checker = std::make_unique<axi::AxiChecker>(
                ctx, n + ".chk", *chain->realm_down, *chain->chk_out, false);
            chain->realm = std::make_unique<rt::RealmUnit>(ctx, n + ".realm",
                                                           *chain->realm_up,
                                                           *chain->realm_down, rcfg);
            chain->parent_checker = std::make_unique<axi::AxiChecker>(
                ctx, n + ".pchk", *chain->mgr_side, *chain->realm_up, false);
            // The monitor reads the port after its consumer, the parent
            // checker, has ticked: built after it, as `run_scenario` builds
            // monitors after the topology.
            chain->monitor =
                std::make_unique<mon::TxnMonitor>(ctx, n + ".mon", *chain->mgr_side);
            xbar_mgrs.push_back(chain->chk_out.get());
            chains.push_back(std::move(chain));
        }

        mem0_ch = std::make_unique<axi::AxiChannel>(ctx, "mem0");
        mem1_ch = std::make_unique<axi::AxiChannel>(ctx, "mem1");
        err_ch = std::make_unique<axi::AxiChannel>(ctx, "err");
        mem0 = std::make_unique<mem::AxiMemSlave>(ctx, "mem0", *mem0_ch,
                                                  std::make_unique<mem::SramBackend>(2, 2),
                                                  mem::AxiMemSlaveConfig{8, 8, 0});
        mem1 = std::make_unique<mem::AxiMemSlave>(ctx, "mem1", *mem1_ch,
                                                  std::make_unique<mem::SramBackend>(5, 5),
                                                  mem::AxiMemSlaveConfig{8, 8, 0});
        err = std::make_unique<mem::ErrorSlave>(ctx, "err", *err_ch);
        ic::XbarConfig xcfg;
        xcfg.default_port = 2;
        xbar = std::make_unique<ic::AxiXbar>(
            ctx, "xbar", std::move(xbar_mgrs),
            std::vector<axi::AxiChannel*>{mem0_ch.get(), mem1_ch.get(), err_ch.get()},
            map, xcfg);
    }

    sim::SimContext ctx;
    std::vector<std::unique_ptr<ManagerChain>> chains;
    std::unique_ptr<axi::AxiChannel> mem0_ch, mem1_ch, err_ch;
    std::unique_ptr<mem::AxiMemSlave> mem0, mem1;
    std::unique_ptr<mem::ErrorSlave> err;
    std::unique_ptr<ic::AxiXbar> xbar;
};

class FuzzSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FuzzSweep, RandomTrafficKeepsAllInvariants) {
    const auto [seed, fragment] = GetParam();
    const auto useed = static_cast<std::uint64_t>(seed);
    rt::RealmUnitConfig rcfg;
    rcfg.fragment_beats = static_cast<std::uint32_t>(fragment);
    rcfg.max_pending = 8;
    FuzzBench bench{3, rcfg};

    // Managers 0/1: random cores over the two memories. Manager 2: DMA.
    traffic::RandomWorkload wl0{{.base = 0x0000,
                                 .bytes = 0x8000,
                                 .op_bytes = 8,
                                 .compute_cycles = 1,
                                 .store_ratio16 = 6,
                                 .num_ops = 300,
                                 .seed = static_cast<std::uint64_t>(seed)}};
    traffic::RandomWorkload wl1{{.base = 0x1'0000,
                                 .bytes = 0x8000,
                                 .op_bytes = 8,
                                 .compute_cycles = 0,
                                 .store_ratio16 = 3,
                                 .num_ops = 300,
                                 .seed = static_cast<std::uint64_t>(seed) + 77}};
    traffic::CoreModel core0{bench.ctx, "c0", *bench.chains[0]->mgr_side, wl0};
    traffic::CoreModel core1{bench.ctx, "c1", *bench.chains[1]->mgr_side, wl1};

    // Seed the DMA source block and copy it across memories.
    auto& src_store = static_cast<mem::SramBackend&>(bench.mem0->backend()).store();
    for (axi::Addr a = 0; a < 0x1000; a += 8) {
        src_store.write_u64(0x9000 + a, a * 1315423911ULL + useed);
    }
    traffic::DmaConfig dcfg;
    dcfg.burst_beats = 32;
    traffic::DmaEngine dma{bench.ctx, "dma", *bench.chains[2]->mgr_side, dcfg};
    dma.push_job(traffic::DmaJob{0x9000, 0x1'9000, 0x1000, false});

    // Put a *binding* budget on the DMA so regulation paths are exercised.
    bench.chains[2]->realm->set_region(0, rt::RegionConfig{0x0, 0x2'0000, 512, 400});

    ASSERT_TRUE(bench.ctx.run_until(
        [&] { return core0.done() && core1.done() && dma.idle(); }, 1'000'000))
        << "seed " << seed << " frag " << fragment << " did not drain";

    // Invariant 1: protocol-clean on both sides of every unit.
    for (const auto& chain : bench.chains) {
        for (const axi::AxiChecker* c : {chain->parent_checker.get(), chain->checker.get()}) {
            EXPECT_EQ(c->violation_count(), 0U)
                << c->name() << ": " << (c->violations().empty() ? "" : c->violations()[0]);
        }
    }
    // Invariant 2: every issued transaction completed.
    EXPECT_EQ(core0.loads_retired() + core0.stores_retired(), 300U);
    EXPECT_EQ(core1.loads_retired() + core1.stores_retired(), 300U);
    for (const auto& chain : bench.chains) {
        EXPECT_EQ(chain->monitor->aw_count(), chain->monitor->write_sketch().count());
        EXPECT_EQ(chain->monitor->ar_count(), chain->monitor->read_sketch().count());
    }
    // Invariant 3: the copy arrived intact despite fragmentation + budget
    // isolation along the way.
    auto& dst_store = static_cast<mem::SramBackend&>(bench.mem1->backend()).store();
    for (axi::Addr a = 0; a < 0x1000; a += 8) {
        ASSERT_EQ(dst_store.read_u64(0x1'9000 + a), a * 1315423911ULL + useed)
            << "seed " << seed << " frag " << fragment << " offset " << a;
    }
    // Invariant 4: the budgeted DMA respected budget/period on average.
    const rt::RegionState& r = bench.chains[2]->realm->mr().region(0);
    EXPECT_GT(r.depletion_events, 0U) << "budget must actually bind in this setup";
    const double bw = static_cast<double>(r.bytes_total) /
                      static_cast<double>(bench.ctx.now());
    EXPECT_LE(bw, 512.0 / 400.0 * 1.3) << "regulated bandwidth above budget share";
}

INSTANTIATE_TEST_SUITE_P(SeedsAndFragments, FuzzSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                                            ::testing::Values(1, 4, 16, 256)));

// --- Genome fuzz on the mesh fabric ------------------------------------------

/// A `mesh-dos-smoke` attack cell reshaped to a 4x4 mesh, monitors on, with
/// both attacker ports driven by a programmable injector genome. Completing
/// at all is most of the assertion: credit conservation, reorder-stash
/// bounds, and link bookkeeping are contract-enforced (`REALM_ENSURES`
/// aborts) throughout the NoC hot path, so any violation under an arbitrary
/// pattern mix kills the run.
scenario::ScenarioConfig mesh4x4_genome_cell(const traffic::InjectorGenome& g) {
    scenario::Sweep sweep = scenario::make_sweep("mesh-dos-smoke");
    for (scenario::SweepPoint& p : sweep.points) {
        if (p.config.interference.empty()) { continue; }
        scenario::ScenarioConfig cfg = p.config;
        auto& mesh = std::get<scenario::MeshTopologyConfig>(cfg.fabric);
        mesh.rows = 4;
        mesh.cols = 4;
        mesh.nodes = scenario::make_mesh_roles(4, 4, 2, 2);
        cfg.monitors.enabled = true;
        cfg.victim.stream.repeat = 1;
        return scenario::genome_scenario(cfg, g);
    }
    ADD_FAILURE() << "mesh-dos-smoke has no attack cells";
    return scenario::ScenarioConfig{};
}

class GenomeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GenomeFuzz, RandomGenomesKeepMeshInvariants) {
    sim::Rng rng{sim::derive_seed("genome-fuzz", GetParam())};
    traffic::InjectorGenome g;
    for (std::uint8_t& gene : g.genes) {
        gene = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    const scenario::ScenarioConfig cfg = mesh4x4_genome_cell(g);
    const scenario::ScenarioResult r = scenario::run_scenario(cfg);

    EXPECT_TRUE(r.boot_ok) << cfg.name;
    EXPECT_FALSE(r.timed_out) << cfg.name;
    EXPECT_EQ(r.ops, cfg.victim.stream.bytes / cfg.victim.stream.op_bytes)
        << cfg.name << ": every victim op must retire";
    // Monitor FSM sanity: a response always matches a tracked burst, for
    // any interference pattern. Orphan *requests* are different: finalize
    // counts bursts still in flight at run end, and always-on attackers
    // legitimately leave some — but never more than their outstanding
    // capacity (2 attackers x 4 reads + 4 writes each).
    EXPECT_EQ(r.mon_orphan_rsp, 0U) << cfg.name;
    EXPECT_LE(r.mon_orphan_req, 16U) << cfg.name;
    EXPECT_EQ(r.mon_false_positives, 0U) << cfg.name;

    // Sampled subset: the sharded kernel must agree bit for bit.
    if (GetParam() < 2) {
        for (const unsigned shards : {2U, 4U}) {
            scenario::ScenarioConfig sharded = cfg;
            sharded.shards = shards;
            EXPECT_TRUE(test::same_result(r, scenario::run_scenario(sharded),
                                          scenario::FieldKind::kKernel))
                << shards << " shards";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGenomes, GenomeFuzz, ::testing::Range(0, 6));

} // namespace
} // namespace realm
