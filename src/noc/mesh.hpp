/// \file
/// \brief 2D-mesh NoC: policy-routed routers + AXI network interfaces.
///
/// The third fabric of the "regulation is interconnect-agnostic" claim: an
/// R x C mesh of routers, each optionally hosting one AXI manager and one
/// subordinate (reached through the same per-manager egress staging and
/// `ic::AxiMux` scheme as the ring NI). The routing decision lives in
/// noc/routing.hpp as a pluggable `RoutingPolicy` — deterministic XY / YX
/// dimension order, per-worm randomized O1TURN (two route classes), or
/// turn-model adaptive west-first (output chosen by per-VC occupancy among
/// the permitted hops). Every link carries one VC per route class and
/// message class, so reads never queue behind writes. Every policy is
/// minimal and deadlock-free (per-policy arguments in routing.hpp), and the
/// ejecting NI restores per-pair, per-class injection order, so the
/// request/response split and the AXI same-ID rules hold under all of
/// them. Unlike the single-lane
/// ring, a mesh router moves up to one packet per output port per cycle,
/// so independent flows on disjoint paths do not serialize — the
/// multi-path contention regime the DoS matrix probes. Every link is a
/// wormhole channel (see credit.hpp): a data worm occupies its output port
/// for `flits_per_packet` cycles, which is exactly the head-of-line
/// blocking at the memory-column merge routers the matrix exists to
/// expose — and exactly the hotspot the routing-policy axis moves around.
/// Endpoints, credit flow control and the router shell are the shared
/// `NocFabric` / `NocRouter` layer (see fabric.hpp); the mesh adds its
/// edge-registered neighbor links, the tile -> shard map, and the routers'
/// hop step.
#pragma once

#include "ic/addr_map.hpp"
#include "noc/credit.hpp"
#include "noc/fabric.hpp"
#include "noc/packet.hpp"
#include "noc/routing.hpp"

#include "sim/context.hpp"

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace realm::noc {

/// One mesh router + network interface. Up to four neighbor ports per
/// virtual network (request / response), one local manager, one local
/// subordinate. Per cycle: every input port may advance one packet (the
/// first movable VC head wins, rotating per-port VC priority so no class
/// starves; ejection is single-ported per network, like the ring NI), each
/// output port accepts at most one packet, inputs arbitrate round-robin,
/// and forwarding has priority over injection. The next hop comes from the
/// fabric's `RoutingPolicy` and the route class a worm's VC names
/// (`vc_route_class`); when the policy permits more than one productive
/// hop (west-first), the router takes the candidate whose target VC holds
/// the fewest buffered flits.
class MeshRouter final : public NocRouter {
public:
    /// Neighbor links, indexed by `MeshDir`; nullptr at mesh edges.
    /// `in[d]` carries packets *from* the neighbor in direction d,
    /// `out[d]` carries packets *toward* it.
    struct Ports {
        std::array<NocLink*, kMeshDirs> req_in{};
        std::array<NocLink*, kMeshDirs> req_out{};
        std::array<NocLink*, kMeshDirs> rsp_in{};
        std::array<NocLink*, kMeshDirs> rsp_out{};
    };

    MeshRouter(sim::SimContext& ctx, std::string name, NodeId node_id, NocFabric& fabric,
               NodeId cols, const Ports& ports, RoutingPolicy routing);

    void tick() override;

private:
    void service_network(bool request_net);
    /// Injection-side routing: computes the permitted hops for `dest` and
    /// picks an output (asserting the set is non-empty — a node never
    /// routes to itself).
    [[nodiscard]] NocLink* route_out(bool request_net, NodeId dest,
                                     std::uint32_t flits, std::uint8_t vc);
    /// Picks the best permitted output for a worm from an already-computed
    /// hop set (`from` is the arrival direction for the 180-degree-turn
    /// assertion; nullopt at injection). Split from `route_out` so the
    /// forwarding hot loop computes `permitted_hops` exactly once per
    /// packet.
    [[nodiscard]] NocLink* pick_output(bool request_net, const HopSet& hops,
                                       std::uint32_t flits, std::uint8_t vc,
                                       std::optional<MeshDir> from);
    void update_activity();

    NodeId cols_;
    Ports ports_;
    RoutingPolicy routing_;
    std::uint8_t num_vcs_;

    /// Round-robin input priority per network (advances only when a packet
    /// moved, so an idle tick stays the promised no-op).
    std::uint8_t req_rr_ = 0;
    std::uint8_t rsp_rr_ = 0;
    /// Per-port VC priority per network (rotates past the VC that moved).
    std::array<std::uint8_t, kMeshDirs> req_vc_rr_{};
    std::array<std::uint8_t, kMeshDirs> rsp_vc_rr_{};
    /// Per-cycle output reservations (one packet per port per cycle).
    std::array<bool, kMeshDirs> req_out_used_{};
    std::array<bool, kMeshDirs> rsp_out_used_{};
};

/// Mesh assembly: neighbor links and one `MeshRouter` per tile on the
/// shared fabric endpoints.
class NocMesh final : public NocFabric {
public:
    /// \param node_map          decodes addresses to node ids (row-major).
    /// \param subordinate_nodes nodes hosting a local subordinate, and
    /// \param manager_nodes     nodes hosting a local manager, each listed
    ///        once (asserted by the `CreditBook`). Egress lanes, credit
    ///        pools and NI pair state exist only between the two sets.
    /// \param realm_nodes       manager nodes with a REALM unit in front of
    ///        their port (see `NocFabric`).
    /// \param flow              transport model and its knobs (shared with
    ///        `NocRing` — the flow-control argument is fabric-independent).
    /// \param routing           routing policy applied fabric-wide (fixes
    ///        the per-link VC count, `link_num_vcs`: 4 under O1TURN, 2
    ///        otherwise).
    /// \param tile_shards       explicit tile -> shard map (one entry per
    ///        node, each < the context's shard count). Empty selects the
    ///        default column-stripe partition. Any map yields bit-identical
    ///        simulated results — a tile's components always co-shard and
    ///        every inter-tile path is edge-registered — so the choice is
    ///        purely a host-side load-balancing decision
    ///        (`MeshTopologyConfig::tile_shards` passes one through; the
    ///        partition-invariance tests fuzz it).
    NocMesh(sim::SimContext& ctx, std::string name, NodeId rows,
            NodeId cols, ic::AddrMap node_map,
            std::vector<NodeId> subordinate_nodes,
            std::vector<NodeId> manager_nodes, const std::vector<NodeId>& realm_nodes,
            NocFlowConfig flow = {}, RoutingPolicy routing = RoutingPolicy::kXY,
            std::vector<unsigned> tile_shards = {});

    /// Spatial shard hosting node `n`'s tile: the explicit map when one was
    /// provided, the default column stripe otherwise. Fixed at construction
    /// from the context's shard setting, so all of a tile's components
    /// (router, mux, memory, attached cores) land on one shard and every
    /// cross-shard path is an edge-registered neighbor link.
    [[nodiscard]] unsigned shard_of_node(NodeId n) const override {
        return tile_shards_.empty()
                   ? static_cast<unsigned>(n % cols_) * stripe_shards_ / cols_
                   : tile_shards_[n];
    }
    [[nodiscard]] RoutingPolicy routing() const noexcept { return routing_; }

    /// The transport a mesh built with `flow` runs. The mesh always runs
    /// the shard-safe transport — edge-registered neighbor links and
    /// cycle-edge credit returns — so its behaviour never depends on the
    /// shard count (including 1). Deferred returns need at least one cycle
    /// of return latency; with a pipelined fabric (link_latency > 1) they
    /// need the full link latency, so every cross-shard channel — flit
    /// links *and* credit returns — carries the conservative lookahead the
    /// batched barrier relies on. So `credit_return_delay` is raised to
    /// `max(link_latency, 1)`, and a mesh point's `config_hash` mixes the
    /// raised value: two delays below it run, and hash, as one.
    [[nodiscard]] static NocFlowConfig shard_safe(NocFlowConfig flow);

private:
    NodeId cols_;
    RoutingPolicy routing_;
    /// Column stripes used for spatial sharding (min(shards, cols)).
    unsigned stripe_shards_ = 1;
    /// Explicit tile -> shard map (empty = column stripes).
    std::vector<unsigned> tile_shards_;
};

} // namespace realm::noc
