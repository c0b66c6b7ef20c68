/// \file
/// \brief Topology subsystem: scenarios polymorphic over the fabric.
///
/// The paper's Figure 1b argues REALM regulation is interconnect-agnostic —
/// the same unit drops in front of a NoC manager port unchanged. This module
/// makes that claim executable at scenario scale: a `FabricConfig` holds the
/// parameters of exactly one fabric — the Cheshire-like crossbar SoC
/// (`soc::SocConfig`), an N-node ring NoC (`RingTopologyConfig`), or an
/// R x C 2D mesh with a pluggable routing policy (`MeshTopologyConfig`, XY /
/// YX / O1TURN / west-first; see noc/routing.hpp) — the NoC fabrics with
/// per-node role assignment and optional REALM placement per manager node —
/// and a `TopologyHandle` presents all of them behind one interface — victim
/// port, interference ports, memory preconditioning, boot/config path, and
/// observable counters — so `run_scenario` and `ScenarioResult` work
/// unchanged across fabrics.
#pragma once

#include "axi/channel.hpp"
#include "mem/axi_mem_slave.hpp"
#include "noc/mesh.hpp"
#include "noc/ring.hpp"
#include "realm/realm_unit.hpp"
#include "soc/cheshire_soc.hpp"

#include "sim/context.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <variant>
#include <vector>

namespace realm::scenario {

struct ScenarioConfig; // scenario.hpp includes this header
struct RegionPlan;

/// What one NoC node hosts (ring and mesh share the role vocabulary).
enum class RingRole : std::uint8_t {
    kPassthrough,  ///< router only, no local manager or subordinate
    kVictim,       ///< the latency-sensitive core (exactly one per fabric)
    kInterference, ///< one interference DMA manager
    kMemory,       ///< one memory subordinate (an address span of the map)
};

[[nodiscard]] constexpr const char* to_string(RingRole r) noexcept {
    switch (r) {
    case RingRole::kPassthrough: return "passthrough";
    case RingRole::kVictim: return "victim";
    case RingRole::kInterference: return "interference";
    case RingRole::kMemory: return "memory";
    }
    return "?";
}

/// Role and REALM placement of one NoC node.
struct RingNodeSpec {
    RingRole role = RingRole::kPassthrough;
    /// Place a REALM unit in front of this node's manager port (only
    /// meaningful for kVictim / kInterference nodes).
    bool realm = false;
    /// Per-node unit parameters; nullopt uses the topology config's `realm`.
    /// Lets a sweep vary one manager's unit (e.g. strip the attackers'
    /// write buffers) while every other unit stays constant across cells.
    std::optional<rt::RealmUnitConfig> realm_config;
};

/// Parameters shared by every NoC fabric. Memory node `k` (k-th kMemory
/// node in node order) serves `[mem_base + k * mem_stride, + mem_span_bytes)`.
struct NocTopologyConfig {
    /// Explicit per-node roles; empty resolves to the fabric's canonical
    /// layout (`make_ring_roles` / `make_mesh_roles` with 1 attacker and 2
    /// memories). When non-empty, the size must equal the fabric's node
    /// count and exactly one node must be the victim.
    std::vector<RingNodeSpec> nodes;

    axi::Addr mem_base = 0x0;
    std::uint64_t mem_span_bytes = 0x2'0000; ///< 128 KiB per memory node
    axi::Addr mem_stride = 0x10'0000;
    std::uint32_t mem_access_latency = 1;
    std::uint32_t mem_max_outstanding = 8;

    /// \name Transport flow control (see noc/credit.hpp)
    ///@{
    /// Wormhole flit links with per-VC credits and end-to-end NI credits —
    /// every buffer bound enforced, not provisioned.
    /// Flits per data-carrying packet (W / R beat worm length).
    std::uint32_t flits_per_packet = 4;
    /// Link VC buffer depth in flits (must hold one whole worm).
    std::uint32_t vc_depth = 8;
    /// End-to-end credit pool per (manager, subordinate) pair and direction,
    /// in flits: for requests, the most a manager may have staged at the
    /// subordinate's NI; for responses, the most response flits a manager
    /// may have requested from one subordinate and not yet received.
    std::uint32_t e2e_credits = 32;
    /// Cycles a returned end-to-end credit waits before its pool's taker
    /// may reuse it (0 = instantaneous release, the historical behaviour).
    std::uint32_t credit_return_delay = 0;
    /// Uniform pipeline depth of every fabric link in cycles: a flit pushed
    /// at cycle N becomes visible to the consumer at N + link_latency
    /// (1 = the historical single-register link). Doubles as the sharded
    /// kernel's conservative lookahead on the mesh — shard barriers run
    /// every link_latency cycles instead of every cycle.
    std::uint32_t link_latency = 1;
    ///@}

    [[nodiscard]] noc::NocFlowConfig flow() const noexcept {
        return noc::NocFlowConfig{flits_per_packet, vc_depth, e2e_credits,
                                  credit_return_delay, link_latency};
    }

    /// Template applied to every placed REALM unit.
    rt::RealmUnitConfig realm;
};

/// Ring fabric parameters.
struct RingTopologyConfig : NocTopologyConfig {
    noc::NodeId num_nodes = 6;
};

/// Mesh fabric parameters. Node ids are row-major (`node = row * cols + col`)
/// and 16-bit, so `rows * cols` must not exceed 65535 (checked on
/// construction) — 32 x 32 fabrics fit comfortably.
struct MeshTopologyConfig : NocTopologyConfig {
    noc::NodeId rows = 2;
    noc::NodeId cols = 3;
    /// Routing policy (see noc/routing.hpp): deterministic XY (default) /
    /// YX dimension order, per-worm randomized O1TURN, or turn-model
    /// adaptive west-first.
    noc::RoutingPolicy routing = noc::RoutingPolicy::kXY;
    /// Explicit tile -> shard map (one entry per node, each below the
    /// scenario's `shards`). Empty keeps the column stripes; the
    /// partition-invariance tests pin scattered and pathological maps here.
    /// Any map runs bit-identically (see `noc::NocMesh::shard_of_node`).
    std::vector<unsigned> tile_shards;

    [[nodiscard]] std::uint32_t num_nodes() const noexcept {
        return static_cast<std::uint32_t>(rows) * cols;
    }
};

/// The fabric a scenario builds, with its parameters: the crossbar SoC of
/// Figure 5 (`soc::CheshireSoc`, the default), the ring NoC of Figure 1b,
/// or a 2D mesh. A point carries only the fabric it builds.
using FabricConfig = std::variant<soc::SocConfig, RingTopologyConfig, MeshTopologyConfig>;

/// The NoC parameters of `fabric`, or nullptr on the crossbar.
[[nodiscard]] inline NocTopologyConfig* noc_config(FabricConfig& fabric) {
    return std::visit(
        []<typename F>(F& f) -> NocTopologyConfig* {
            if constexpr (std::is_base_of_v<NocTopologyConfig, F>) {
                return &f;
            } else {
                return nullptr;
            }
        },
        fabric);
}

/// Canonical ring layout: victim at node 0, `num_memories` memory nodes
/// spread evenly over the ring, `num_attackers` interference nodes filling
/// the lowest free positions, the rest pass-through hops. Every manager node
/// gets a REALM unit.
[[nodiscard]] std::vector<RingNodeSpec>
make_ring_roles(noc::NodeId num_nodes, noc::NodeId num_attackers,
                noc::NodeId num_memories = 2);

/// Canonical mesh layout: the same victim/memory/attacker spread as
/// `make_ring_roles` applied to the row-major node order — the victim sits
/// in the north-west corner, memories land spread across rows and columns,
/// attackers fill the lowest free positions. Sharing the linear layout keeps
/// DoS-matrix cells comparable across fabrics (same roles at the same node
/// indices), while XY routing turns the linear spread into genuinely
/// distinct multi-hop paths.
[[nodiscard]] std::vector<RingNodeSpec>
make_mesh_roles(noc::NodeId rows, noc::NodeId cols, noc::NodeId num_attackers,
                noc::NodeId num_memories = 2);

/// One constructed fabric, presented uniformly to `run_scenario`: where the
/// victim and the interference DMAs attach, how memory is preconditioned,
/// how regulation is programmed (boot/config path), and which counters are
/// observable. Implementations own every component of the fabric.
class TopologyHandle {
public:
    virtual ~TopologyHandle() = default;

    /// \name Manager attachment points
    ///@{
    /// Channel the victim core model drives (upstream of its REALM unit).
    [[nodiscard]] virtual axi::AxiChannel& victim_port() = 0;
    /// Interference manager ports available on this fabric.
    [[nodiscard]] virtual std::size_t num_interference_ports() const = 0;
    [[nodiscard]] virtual axi::AxiChannel& interference_port(std::size_t i) = 0;
    /// Spatial shard of the tile behind each attachment point — the models
    /// driving a port must be built (and hence ticked) on the same shard as
    /// the tile they talk to, since that path is not edge-registered.
    /// Fabrics without spatial sharding keep everything on shard 0.
    [[nodiscard]] virtual unsigned victim_shard() const { return 0; }
    [[nodiscard]] virtual unsigned interference_shard(std::size_t) const { return 0; }
    ///@}

    /// \name Memory preconditioning (by bus address)
    ///@{
    /// Copies `bytes` into the memory behind `[addr, addr + bytes.size())`.
    /// The NoC fabrics require the whole range to sit in one memory node's
    /// span.
    virtual void write(axi::Addr addr, std::span<const std::uint8_t> bytes) = 0;
    /// Installs the span hot in whatever cache the fabric has (no-op when
    /// it has none, e.g. the NoC fabrics' flat SRAM nodes).
    virtual void warm(axi::Addr base, std::uint64_t bytes) = 0;
    ///@}

    /// \name Boot / configuration path
    ///@{
    /// Programs per-unit regulation (plan 0: victim unit, plan 1+i:
    /// interference unit i) and returns false if the configuration path did
    /// not complete. The Cheshire fabric runs the paper's guarded boot-flow
    /// script on the HWRoT master; the NoC fabrics program their units
    /// directly.
    virtual bool boot(const std::vector<RegionPlan>& plans) = 0;
    /// Enables the throttling unit on every interference-side REALM unit.
    virtual void set_interference_throttle(bool enabled) = 0;
    /// Programs a monitor-only (unregulated) region over the fabric's main
    /// memory span on the victim-side REALM unit.
    virtual void set_victim_monitor() = 0;
    ///@}

    /// \name Observable counters
    ///@{
    /// Victim-side REALM unit, or nullptr when none is placed.
    [[nodiscard]] virtual const rt::RealmUnit* victim_realm() const = 0;
    /// REALM unit in front of interference manager `i`, or nullptr.
    [[nodiscard]] virtual const rt::RealmUnit* interference_realm(std::size_t i) const = 0;
    /// Cycles the fabric's memory-side W channel stalled on a granted
    /// manager withholding data (the DoS exposure metric; crossbar: LLC
    /// port, NoC: sum over the memory-node egress muxes).
    [[nodiscard]] virtual std::uint64_t fabric_w_stalls() const = 0;
    /// Packets forwarded across fabric hops (0 on the crossbar).
    [[nodiscard]] virtual std::uint64_t fabric_hops() const = 0;
    /// Cycles a memory node's response output was held for one manager's
    /// full egress lane (NoC: sum over the memory-node egress muxes; 0 on
    /// the crossbar).
    [[nodiscard]] virtual std::uint64_t fabric_rsp_holds() const { return 0; }
    /// Asserts the fabric's flow-control invariants (credit conservation,
    /// bounded NI staging, bounded link VCs). No-op on fabrics without
    /// credited flow control; tests call it every cycle.
    virtual void check_flow_invariants() const {}
    /// Conservative lookahead the fabric guarantees: every cross-shard
    /// effect staged at cycle N is invisible before N + lookahead, so the
    /// sharded kernel may batch that many cycles per barrier epoch
    /// (`sim::SimContext::set_lookahead`). Fabrics without that guarantee
    /// keep the per-cycle barrier (1).
    [[nodiscard]] virtual sim::Cycle lookahead() const { return 1; }
    ///@}
};

/// Builds the fabric `cfg.fabric` holds inside `ctx`.
[[nodiscard]] std::unique_ptr<TopologyHandle> make_topology(sim::SimContext& ctx,
                                                            const ScenarioConfig& cfg);

} // namespace realm::scenario
