/// Partition-invariance and partitioner unit tests.
///
/// The sharded mesh kernel promises that the tile -> shard map is a pure
/// host-side load-balancing decision: *any* map — column stripes, the greedy
/// balanced assignment, or an adversarially scrambled one — produces
/// bit-identical simulated results, at every link latency. The fuzz test
/// below drives a 4x4 mesh DoS cell (monitors on, so the telemetry plane is
/// compared too) under randomized and pathological maps and compares every
/// semantic result field against the single-shard reference.
#include "scenario/partition.hpp"
#include "scenario/registry.hpp"
#include "sim/rng.hpp"

#include "same_result.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace realm {
namespace {

// --- Partitioner unit tests --------------------------------------------------

TEST(BalancedPartition, IsDeterministicAndCoversAllShards) {
    const std::vector<double> weights{3.0, 1.0, 2.0, 1.0, 3.0, 2.0, 1.0, 1.0};
    const std::vector<unsigned> a = scenario::balanced_partition(weights, 4);
    const std::vector<unsigned> b = scenario::balanced_partition(weights, 4);
    EXPECT_EQ(a, b) << "same weights must always yield the same partition";
    ASSERT_EQ(a.size(), weights.size());
    // 14 total weight over 4 shards: every shard must receive work.
    std::vector<double> load(4, 0.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_LT(a[i], 4U);
        load[a[i]] += weights[i];
    }
    for (unsigned s = 0; s < 4; ++s) { EXPECT_GT(load[s], 0.0) << "shard " << s; }
    // Greedy LPT on this instance balances within the largest tile weight.
    const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
    EXPECT_LE(*hi - *lo, 3.0);
}

TEST(BalancedPartition, SingleShardMapsEverythingToZero) {
    const std::vector<unsigned> map =
        scenario::balanced_partition({1.0, 2.0, 3.0}, 1);
    EXPECT_EQ(map, (std::vector<unsigned>{0, 0, 0}));
}

TEST(BalancedPartition, TileWeightsFollowRoles) {
    const std::vector<scenario::RingNodeSpec> specs =
        scenario::make_mesh_roles(4, 4, 2, 2);
    const std::vector<double> w =
        scenario::tile_weights(specs, scenario::TileWeightModel{});
    ASSERT_EQ(w.size(), 16U);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        switch (specs[i].role) {
        case scenario::RingRole::kPassthrough:
            EXPECT_DOUBLE_EQ(w[i], 1.0);
            break;
        case scenario::RingRole::kMemory:
            EXPECT_GT(w[i], 1.0) << "memory tiles carry the slave + mux";
            break;
        case scenario::RingRole::kVictim:
        case scenario::RingRole::kInterference:
            EXPECT_GT(w[i], 1.0) << "manager tiles carry an engine";
            break;
        }
    }
}

TEST(BalancedPartition, WeightModelDerivesFromProfileRows) {
    // Routers at 100 ns/tick, memory slaves at 400 ns/tick: the derived
    // subordinate weight must be the measured 4x ratio, while categories
    // absent from the profile keep their static defaults.
    std::vector<scenario::ProfileRow> rows;
    rows.push_back({"realm::noc::MeshRouter", 0, 16, 1000, 100'000});
    rows.push_back({"realm::mem::AxiMemSlave", 1, 2, 500, 200'000});
    const scenario::TileWeightModel m = scenario::weight_model_from_profile(rows);
    EXPECT_DOUBLE_EQ(m.router, 1.0);
    EXPECT_DOUBLE_EQ(m.subordinate, 4.0);
    EXPECT_DOUBLE_EQ(m.manager, scenario::TileWeightModel{}.manager);
    EXPECT_DOUBLE_EQ(m.realm, scenario::TileWeightModel{}.realm);
}

TEST(BalancedPartition, EmptyOrRouterlessProfileKeepsStaticModel) {
    const scenario::TileWeightModel empty =
        scenario::weight_model_from_profile({});
    EXPECT_DOUBLE_EQ(empty.subordinate, scenario::TileWeightModel{}.subordinate);
    std::vector<scenario::ProfileRow> rows;
    rows.push_back({"realm::mem::AxiMemSlave", 0, 2, 500, 200'000});
    const scenario::TileWeightModel routerless =
        scenario::weight_model_from_profile(rows);
    EXPECT_DOUBLE_EQ(routerless.subordinate,
                     scenario::TileWeightModel{}.subordinate);
}

TEST(BalancedPartition, ExplicitTileShardsOverridePolicy) {
    scenario::ScenarioConfig cfg;
    cfg.partition = scenario::PartitionPolicy::kBalanced;
    cfg.tile_shards = {0, 1, 0, 1};
    const std::vector<scenario::RingNodeSpec> specs =
        scenario::make_mesh_roles(2, 2, 0, 2);
    EXPECT_EQ(scenario::mesh_tile_shards(cfg, specs, 2), cfg.tile_shards);
    cfg.tile_shards.clear();
    cfg.partition = scenario::PartitionPolicy::kStripe;
    EXPECT_TRUE(scenario::mesh_tile_shards(cfg, specs, 2).empty())
        << "stripe policy must fall through to the fabric default";
}

// --- Randomized partition invariance -----------------------------------------

/// A `mesh-dos-smoke` attack cell reshaped to a 4x4 mesh with the
/// monitoring plane enabled — the same cell the genome fuzz drives, chosen
/// because it exercises contention, regulation, and telemetry at once.
scenario::ScenarioConfig mesh4x4_cell(std::uint32_t link_latency) {
    scenario::Sweep sweep = scenario::make_sweep("mesh-dos-smoke");
    for (scenario::SweepPoint& p : sweep.points) {
        if (p.config.interference.empty()) { continue; }
        scenario::ScenarioConfig cfg = p.config;
        cfg.topology.mesh.rows = 4;
        cfg.topology.mesh.cols = 4;
        cfg.topology.mesh.nodes = scenario::make_mesh_roles(4, 4, 2, 2);
        cfg.topology.mesh.link_latency = link_latency;
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
        cfg.tile_shards = std::move(map);
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

} // namespace
} // namespace realm
