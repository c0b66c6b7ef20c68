/// Footprint regression tests: the heap a mesh build holds must grow with
/// the nodes (routers, links) and with the subordinate x manager pairs
/// (egress staging, credit pools, NI pair state, manager ports), never with
/// nodes squared or with subordinates x nodes; the build's allocation count
/// must follow the nodes, not the links; and the REALM write buffer must
/// hold a fragmented write in heap proportional to the beats it buffers,
/// not to the fragments it queues. A binary of its own, because it replaces
/// the global `operator new` with a counting one.
#include "axi/burst.hpp"
#include "axi/flit.hpp"
#include "realm/write_buffer.hpp"
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
#include <vector>

namespace {

/// Bytes currently allocated through the replaced operators. Each block
/// carries its size in a header so a free can subtract it.
std::atomic<std::size_t> g_live_bytes{0};
/// Calls to the replaced `operator new` / `operator new[]`.
std::atomic<std::size_t> g_allocations{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) {
    void* raw = std::malloc(size + kHeader);
    if (raw == nullptr) { throw std::bad_alloc{}; }
    *static_cast<std::size_t*>(raw) = size;
    g_live_bytes.fetch_add(size, std::memory_order_relaxed);
    g_allocations.fetch_add(1, std::memory_order_relaxed);
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

/// What building the topology of one `mesh-contention-large` point at 2
/// shards costs the heap: bytes allocated and not freed, and calls to
/// `operator new`, both across `make_topology`.
struct BuildCost {
    double held_mib = 0;
    std::size_t allocations = 0;
};

BuildCost build_cost(const std::string& label) {
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
    const std::size_t bytes_before = g_live_bytes.load();
    const std::size_t allocations_before = g_allocations.load();
    const auto topo = make_topology(ctx, cfg);
    const std::size_t held = g_live_bytes.load() - bytes_before;
    return {static_cast<double>(held) / (1024.0 * 1024.0),
            g_allocations.load() - allocations_before};
}

TEST(Footprint, MeshBuildHeapGrowsWithNodesNotPairs) {
    const double mesh16 = build_cost("16x16 solo").held_mib;
    const double mesh32 = build_cost("32x32 solo").held_mib;
    RecordProperty("heap_16x16_mib", std::to_string(mesh16));
    RecordProperty("heap_32x32_mib", std::to_string(mesh32));
    // 4x the nodes: state linear in the nodes grows ~4x; per-pair tables
    // sized by nodes squared grow 16x and pull the ratio past 8x.
    EXPECT_LT(mesh32, 5.0 * mesh16)
        << "32x32 build heap " << mesh32 << " MiB vs 16x16 " << mesh16 << " MiB";
    // The solo point has one manager among 1,024 nodes. Egress lanes and
    // manager ports at every node would add ~19 MiB to the ~10 MiB of
    // routers and links; sized by subordinates x managers they add a few
    // KiB.
    EXPECT_LT(mesh32, 16.0) << "32x32 build heap " << mesh32 << " MiB";
}

TEST(Footprint, MeshBuildAllocationsFollowNodesNotLinks) {
    // A mesh has ~8 links per node (two networks, four directions). Built
    // one heap object (plus its buffers) at a time they cost ~24
    // allocations per node; built in one block per fabric, what remains
    // is about one router per node.
    for (const unsigned n : {16U, 32U}) {
        const std::string label = std::to_string(n) + "x" + std::to_string(n) + " solo";
        const std::size_t allocations = build_cost(label).allocations;
        RecordProperty("allocations_" + std::to_string(n) + "x" + std::to_string(n),
                       std::to_string(allocations));
        EXPECT_LT(allocations, 2U * n * n)
            << label << " build makes " << allocations << " allocations for "
            << n * n << " nodes";
    }
}

TEST(Footprint, FragmentedWriteHeapFollowsBufferedBeats) {
    // A 256-beat write fragmented into 2-beat children queues 128 entries,
    // of which the 16-beat buffer can hold data for 8. The heap must follow
    // the 16 buffered beats plus a small record per entry: a FIFO of beats
    // per entry would cost over 500 bytes each even while empty.
    const std::size_t before = g_live_bytes.load();
    {
        rt::WriteBuffer wb{16, true};
        axi::AwFlit parent;
        parent.len = 255;
        std::vector<axi::BurstDescriptor> children;
        for (axi::Addr a = 0; a < 256 * 8; a += 2 * 8) {
            children.push_back(axi::BurstDescriptor{a, 1, 3, axi::Burst::kIncr});
        }
        wb.queue_children(parent, children);
        children.clear();
        children.shrink_to_fit();
        for (int beat = 0; beat < 16; ++beat) {
            ASSERT_TRUE(wb.can_accept_beat());
            wb.accept_beat(axi::WFlit{});
        }
        EXPECT_FALSE(wb.can_accept_beat()) << "the buffer holds 16 beats";
        const std::size_t held = g_live_bytes.load() - before;
        RecordProperty("fragmented_write_bytes", std::to_string(held));
        EXPECT_LT(held, 16U * 1024U) << "write buffer holds " << held << " bytes";
    }
}

} // namespace
} // namespace realm::scenario
