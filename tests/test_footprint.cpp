/// Footprint regression test for the NoC fabrics: the heap a mesh build
/// holds must grow with the nodes (routers, links) and with the
/// subordinate x node pairs (egress staging, credit pools, NI pair state),
/// never with nodes squared. A binary of its own, because it replaces the
/// global `operator new` with a counting one.
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "scenario/topology.hpp"
#include "sim/context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

namespace {

/// Bytes currently allocated through the replaced operators. Each block
/// carries its size in a header so a free can subtract it.
std::atomic<std::size_t> g_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) {
    void* raw = std::malloc(size + kHeader);
    if (raw == nullptr) { throw std::bad_alloc{}; }
    *static_cast<std::size_t*>(raw) = size;
    g_live_bytes.fetch_add(size, std::memory_order_relaxed);
    return static_cast<char*>(raw) + kHeader;
}

void counted_free(void* p) noexcept {
    if (p == nullptr) { return; }
    void* raw = static_cast<char*>(p) - kHeader;
    g_live_bytes.fetch_sub(*static_cast<std::size_t*>(raw), std::memory_order_relaxed);
    std::free(raw);
}

} // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace realm::scenario {
namespace {

/// Heap held by the topology of one `mesh-contention-large` point built at
/// 2 shards, in MiB: bytes allocated and not freed across `make_topology`.
double build_heap_mib(const std::string& label) {
    ScenarioConfig cfg;
    bool found = false;
    for (const SweepPoint& p : make_sweep("mesh-contention-large").points) {
        if (p.label == label) {
            cfg = p.config;
            found = true;
        }
    }
    EXPECT_TRUE(found) << "mesh-contention-large has no point " << label;
    cfg.shards = 2;
    sim::SimContext ctx;
    ctx.set_shards(cfg.shards);
    const std::size_t before = g_live_bytes.load();
    const auto topo = make_topology(ctx, cfg);
    const std::size_t held = g_live_bytes.load() - before;
    return static_cast<double>(held) / (1024.0 * 1024.0);
}

TEST(Footprint, MeshBuildHeapGrowsWithNodesNotPairs) {
    const double mesh16 = build_heap_mib("16x16 solo");
    const double mesh32 = build_heap_mib("32x32 solo");
    RecordProperty("heap_16x16_mib", std::to_string(mesh16));
    RecordProperty("heap_32x32_mib", std::to_string(mesh32));
    // 4x the nodes: state linear in the nodes (or in subordinates x nodes,
    // with a fixed subordinate count) grows ~4x; per-pair tables sized by
    // nodes squared grow 16x and pull the ratio past 8x.
    EXPECT_LT(mesh32, 5.0 * mesh16)
        << "32x32 build heap " << mesh32 << " MiB vs 16x16 " << mesh16 << " MiB";
    EXPECT_LT(mesh32, 48.0) << "32x32 build heap " << mesh32 << " MiB";
}

} // namespace
} // namespace realm::scenario
