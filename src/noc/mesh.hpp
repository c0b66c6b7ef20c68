/// \file
/// \brief 2D-mesh NoC: policy-routed routers + AXI network interfaces.
///
/// The third fabric of the "regulation is interconnect-agnostic" claim: an
/// R x C mesh of routers, each optionally hosting one AXI manager and one
/// subordinate (reached through the same per-manager egress staging and
/// `ic::AxiMux` scheme as the ring NI). The routing decision lives in
/// noc/routing.hpp as a pluggable `RoutingPolicy` — deterministic XY / YX
/// dimension order, per-worm randomized O1TURN (two VCs, one per route
/// class), or turn-model adaptive west-first (output chosen by per-VC
/// occupancy among the permitted hops). Every policy is minimal and
/// deadlock-free (per-policy arguments in routing.hpp), and the ejecting
/// NI restores per-pair injection order, so the request/response split and
/// the AXI same-ID rules hold under all of them. Unlike the single-lane
/// ring, a mesh router moves up to one packet per output port per cycle,
/// so independent flows on disjoint paths do not serialize — the
/// multi-path contention regime the DoS matrix probes. Every link is a
/// wormhole channel (see credit.hpp): a data worm occupies its output port
/// for `flits_per_packet` cycles, which is exactly the head-of-line
/// blocking at the memory-column merge routers the matrix exists to
/// expose — and exactly the hotspot the routing-policy axis moves around.
#pragma once

#include "axi/channel.hpp"
#include "ic/addr_map.hpp"
#include "ic/mux.hpp"
#include "noc/credit.hpp"
#include "noc/ni.hpp"
#include "noc/packet.hpp"
#include "noc/routing.hpp"

#include "sim/component.hpp"
#include "sim/context.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace realm::noc {

/// One mesh router + network interface. Up to four neighbor ports per
/// virtual network (request / response), one local manager, one local
/// subordinate. Per cycle: every input port may advance one packet (the
/// first movable VC head wins, rotating per-port VC priority so neither
/// class starves; ejection is single-ported per network, like the ring
/// NI), each output port accepts at most one packet, inputs arbitrate
/// round-robin, and forwarding has priority over injection. The next hop
/// comes from the fabric's `RoutingPolicy`; when the policy permits more
/// than one productive hop (west-first), the router takes the candidate
/// whose target VC holds the fewest buffered flits.
class MeshRouter : public sim::Component {
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

    /// \param deferred_credits  Stage credit releases for the cycle-edge
    ///        flush (required under spatial sharding; `NocMesh` always
    ///        passes true so behaviour never depends on the shard count).
    MeshRouter(sim::SimContext& ctx, std::string name, NodeId node_id,
               NodeId cols, ic::AddrMap map,
               axi::AxiChannel* local_mgr,
               std::vector<axi::AxiChannel*> egress, Ports ports,
               const NocFlowConfig& fc, CreditBook* book,
               RoutingPolicy routing = RoutingPolicy::kXY,
               bool deferred_credits = false);

    void reset() override;
    void tick() override;

    [[nodiscard]] RoutingPolicy routing() const noexcept { return routing_; }
    /// NI bookkeeping (reorder-stash introspection for invariant checks).
    [[nodiscard]] const NocNi& ni() const noexcept { return ni_; }

    /// \name Statistics
    ///@{
    [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }
    [[nodiscard]] std::uint64_t ejected() const noexcept { return ejected_; }
    [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
    /// Cycles an input head could not move (output busy/backpressured or
    /// ejection staging full) — the mesh analog of ring stalls.
    [[nodiscard]] std::uint64_t stall_cycles() const noexcept { return stalls_; }
    ///@}

private:
    void service_network(bool request_net);
    void inject_requests();
    void inject_responses();
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

    NodeId id_;
    NodeId cols_;
    ic::AddrMap map_;
    axi::AxiChannel* local_mgr_;
    std::vector<axi::AxiChannel*> egress_;
    Ports ports_;
    RoutingPolicy routing_;
    std::uint8_t num_vcs_;

    NocNi ni_;

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

    std::uint64_t injected_ = 0;
    std::uint64_t ejected_ = 0;
    std::uint64_t forwarded_ = 0;
    std::uint64_t stalls_ = 0;
};

/// Mesh assembly: routers, neighbor links, per-subordinate egress muxes.
/// Mirrors `NocRing`'s interface so the topology subsystem treats both
/// fabrics through one code path.
class NocMesh {
public:
    /// \param node_map          decodes addresses to node ids (row-major).
    /// \param subordinate_nodes nodes hosting a local subordinate, and
    /// \param manager_nodes     nodes hosting a local manager, each listed
    ///        once (asserted by the `CreditBook`). Egress lanes, credit
    ///        pools and NI pair state exist only between the two sets.
    /// \param flow              transport model and its knobs (shared with
    ///        `NocRing` — the flow-control argument is fabric-independent).
    /// \param routing           routing policy applied fabric-wide (fixes
    ///        the per-link VC count: 2 under O1TURN, 1 otherwise).
    /// \param tile_shards       explicit tile -> shard map (one entry per
    ///        node, each < the context's shard count). Empty selects the
    ///        default column-stripe partition. Any map yields bit-identical
    ///        simulated results — a tile's components always co-shard and
    ///        every inter-tile path is edge-registered — so the choice is
    ///        purely a host-side load-balancing decision (see
    ///        scenario/partition.hpp for the profile-guided builder).
    NocMesh(sim::SimContext& ctx, std::string name, NodeId rows,
            NodeId cols, ic::AddrMap node_map,
            std::vector<NodeId> subordinate_nodes,
            std::vector<NodeId> manager_nodes, NocFlowConfig flow = {},
            RoutingPolicy routing = RoutingPolicy::kXY,
            std::vector<unsigned> tile_shards = {});

    NocMesh(const NocMesh&) = delete;
    NocMesh& operator=(const NocMesh&) = delete;

    /// Channel the manager at `node` drives (requests in, responses out);
    /// asserts that `node` hosts a manager.
    [[nodiscard]] axi::AxiChannel& manager_port(NodeId node);
    /// Channel to attach a subordinate model at `node`.
    [[nodiscard]] axi::AxiChannel& subordinate_port(NodeId node);

    [[nodiscard]] MeshRouter& router(NodeId i) { return *routers_.at(i); }
    [[nodiscard]] NodeId rows() const noexcept { return rows_; }
    [[nodiscard]] NodeId cols() const noexcept { return cols_; }
    [[nodiscard]] NodeId num_nodes() const noexcept {
        return static_cast<NodeId>(routers_.size());
    }
    /// Spatial shard hosting node `n`'s tile: the explicit map when one was
    /// provided, the default column stripe otherwise. Fixed at construction
    /// from the context's shard setting, so all of a tile's components
    /// (router, mux, memory, attached cores) land on one shard and every
    /// cross-shard path is an edge-registered neighbor link.
    [[nodiscard]] unsigned shard_of_node(NodeId n) const noexcept {
        return tile_shards_.empty()
                   ? static_cast<unsigned>(n % cols_) * stripe_shards_ / cols_
                   : tile_shards_[n];
    }
    [[nodiscard]] const NocFlowConfig& flow() const noexcept { return flow_; }
    [[nodiscard]] RoutingPolicy routing() const noexcept { return routing_; }
    /// End-to-end credit book.
    [[nodiscard]] const CreditBook* credit_book() const noexcept {
        return book_.get();
    }

    /// Aggregate mesh statistics (hops forwarded across all routers).
    [[nodiscard]] std::uint64_t total_forwarded() const noexcept;
    /// Aggregate head-of-line stall cycles across all routers.
    [[nodiscard]] std::uint64_t total_stalls() const noexcept;
    /// Aggregate W-channel reservation stalls across the subordinate-side
    /// egress muxes (the DoS exposure metric, cf. `NocRing`).
    [[nodiscard]] std::uint64_t total_mux_w_stalls() const noexcept;

    /// Asserts every flow-control invariant of the fabric (see
    /// `NocRing::check_flow_invariants`), including the reorder-stash
    /// bounds of every NI.
    void check_flow_invariants() const;

private:
    NodeId rows_;
    NodeId cols_;
    /// Column stripes used for spatial sharding (min(shards, cols)).
    unsigned stripe_shards_ = 1;
    /// Explicit tile -> shard map (empty = column stripes).
    std::vector<unsigned> tile_shards_;
    NocFlowConfig flow_;
    RoutingPolicy routing_;
    std::unique_ptr<CreditBook> book_;
    /// Per manager slot (see `CreditBook::manager_slot`).
    std::vector<std::unique_ptr<axi::AxiChannel>> mgr_ports_;
    /// Neighbor links per network and orientation. `h_*[i]` connects node i
    /// to node i+1 (east/west pair, absent on the last column); `v_*[i]`
    /// connects node i to node i+cols (south/north pair, absent on the last
    /// row). `*_fwd` flows east/south, `*_rev` flows west/north.
    std::vector<std::unique_ptr<NocLink>> h_req_fwd_, h_req_rev_;
    std::vector<std::unique_ptr<NocLink>> h_rsp_fwd_, h_rsp_rev_;
    std::vector<std::unique_ptr<NocLink>> v_req_fwd_, v_req_rev_;
    std::vector<std::unique_ptr<NocLink>> v_rsp_fwd_, v_rsp_rev_;
    /// Per subordinate slot (see `CreditBook::subordinate_slot`):
    /// egress_[slot][manager slot], the subordinate port and its mux.
    std::vector<std::vector<std::unique_ptr<axi::AxiChannel>>> egress_;
    std::vector<std::unique_ptr<axi::AxiChannel>> sub_ports_;
    std::vector<std::unique_ptr<ic::AxiMux>> muxes_;
    std::vector<std::unique_ptr<MeshRouter>> routers_;
};

} // namespace realm::noc
