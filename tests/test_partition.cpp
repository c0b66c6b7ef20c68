/// Partition-invariance tests.
///
/// The sharded mesh kernel promises that the tile -> shard map is a pure
/// host-side load-balancing decision: *any* map — the default column
/// stripes or an adversarially scrambled `MeshTopologyConfig::tile_shards` —
/// produces bit-identical simulated results, at every link latency. The
/// fuzz test below drives a 4x4 mesh DoS cell (monitors on, so the
/// telemetry plane is compared too) under randomized and pathological maps
/// and compares every semantic result field against the single-shard
/// reference.
#include "scenario/registry.hpp"
#include "scenario/topology.hpp"
#include "sim/rng.hpp"

#include "same_result.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <variant>
#include <vector>

namespace realm {
namespace {

/// A `mesh-dos-smoke` attack cell reshaped to a 4x4 mesh with the
/// monitoring plane enabled — the same cell the genome fuzz drives, chosen
/// because it exercises contention, regulation, and telemetry at once.
scenario::ScenarioConfig mesh4x4_cell(std::uint32_t link_latency) {
    scenario::Sweep sweep = scenario::make_sweep("mesh-dos-smoke");
    for (scenario::SweepPoint& p : sweep.points) {
        if (p.config.interference.empty()) { continue; }
        scenario::ScenarioConfig cfg = p.config;
        auto& mesh = std::get<scenario::MeshTopologyConfig>(cfg.fabric);
        mesh.rows = 4;
        mesh.cols = 4;
        mesh.nodes = scenario::make_mesh_roles(4, 4, 2, 2);
        mesh.link_latency = link_latency;
        cfg.monitors.enabled = true;
        cfg.victim.stream.repeat = 1;
        return cfg;
    }
    ADD_FAILURE() << "mesh-dos-smoke has no attack cells";
    return scenario::ScenarioConfig{};
}

class PartitionInvariance : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PartitionInvariance, RandomTileMapsAreBitIdentical) {
    const std::uint32_t latency = GetParam();
    const scenario::ScenarioResult ref =
        scenario::run_scenario(mesh4x4_cell(latency));
    ASSERT_FALSE(ref.timed_out);
    ASSERT_GT(ref.fabric_hops, 0U);

    const auto run_with_map = [&](std::vector<unsigned> map, unsigned shards,
                                  const char* what) {
        scenario::ScenarioConfig cfg = mesh4x4_cell(latency);
        cfg.shards = shards;
        cfg.shard_workers = 2; // concurrent barrier even on small hosts
        std::get<scenario::MeshTopologyConfig>(cfg.fabric).tile_shards = std::move(map);
        SCOPED_TRACE(testing::Message() << what << " link_latency=" << latency
                                        << " shards=" << shards);
        EXPECT_TRUE(test::same_result(ref, scenario::run_scenario(cfg),
                                      scenario::FieldKind::kKernel));
    };

    // Pathological maps first: everything on one shard (three shards idle),
    // and a singleton shard owning exactly one tile.
    run_with_map(std::vector<unsigned>(16, 0), 4, "all-on-shard-0");
    {
        std::vector<unsigned> singleton(16, 0);
        singleton[5] = 3;
        run_with_map(std::move(singleton), 4, "singleton-shard");
    }
    // Randomized maps, seeded deterministically per link latency.
    sim::Rng rng{sim::derive_seed("partition-fuzz", latency)};
    for (int trial = 0; trial < 3; ++trial) {
        std::vector<unsigned> map(16);
        for (unsigned& s : map) {
            s = static_cast<unsigned>(rng.uniform(0, 3));
        }
        run_with_map(std::move(map), 4, "random-map");
    }
}

INSTANTIATE_TEST_SUITE_P(LinkLatencies, PartitionInvariance,
                         ::testing::Values(1U, 2U, 4U));

TEST(PartitionPlacement, EveryRealmUnitRidesItsNodesShard) {
    // A REALM unit's manager port passes responses through, which is
    // race-free only while the unit ticks on the shard of the router that
    // pushes them; the maps above would not show a unit built elsewhere
    // whose timing happened to agree. A scattered map puts the victim (node
    // 0) and the two attackers (nodes 1 and 2) on three different shards.
    scenario::ScenarioConfig cfg = mesh4x4_cell(1);
    cfg.shards = 4;
    std::vector<unsigned> map(16);
    for (unsigned n = 0; n < map.size(); ++n) { map[n] = (n * 7 + 1) % 4; }
    std::get<scenario::MeshTopologyConfig>(cfg.fabric).tile_shards = map;
    sim::SimContext ctx;
    ctx.set_shards(cfg.shards);
    const auto topo = scenario::make_topology(ctx, cfg);
    ASSERT_NE(topo->victim_realm(), nullptr);
    EXPECT_EQ(topo->victim_shard(), map[0]);
    EXPECT_EQ(topo->victim_realm()->shard(), topo->victim_shard());
    ASSERT_EQ(topo->num_interference_ports(), 2U);
    for (std::size_t i = 0; i < topo->num_interference_ports(); ++i) {
        ASSERT_NE(topo->interference_realm(i), nullptr) << i;
        EXPECT_EQ(topo->interference_realm(i)->shard(), topo->interference_shard(i)) << i;
    }
}

} // namespace
} // namespace realm
