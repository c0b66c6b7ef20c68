#include "noc/mesh.hpp"

#include "sim/check.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace realm::noc {

// ---------------------------------------------------------------------------
// MeshRouter
// ---------------------------------------------------------------------------

MeshRouter::MeshRouter(sim::SimContext& ctx, std::string name, NodeId node_id,
                       NocFabric& fabric, NodeId cols, const Ports& ports,
                       RoutingPolicy routing)
    : NocRouter{ctx, std::move(name), node_id, fabric, routing},
      cols_{cols},
      ports_{ports},
      routing_{routing},
      num_vcs_{link_num_vcs(routing)} {
    // Every neighbor link feeding this router has exactly one consumer
    // (this router), so claiming the push hooks is safe.
    for (std::size_t d = 0; d < kMeshDirs; ++d) {
        if (ports_.req_in[d] != nullptr) { ports_.req_in[d]->set_wake_on_push(this); }
        if (ports_.rsp_in[d] != nullptr) { ports_.rsp_in[d]->set_wake_on_push(this); }
    }
}

NocLink* MeshRouter::route_out(bool request_net, NodeId dest,
                               std::uint32_t flits, std::uint8_t vc) {
    const HopSet hops = permitted_hops(routing_, cols_, id_, dest, vc_route_class(vc));
    REALM_EXPECTS(!hops.empty(),
                  name() + ": a mesh node does not route packets to itself");
    return pick_output(request_net, hops, flits, vc, std::nullopt);
}

NocLink* MeshRouter::pick_output(bool request_net, const HopSet& hops,
                                 std::uint32_t flits, std::uint8_t vc,
                                 std::optional<MeshDir> from) {
    auto& out = request_net ? ports_.req_out : ports_.rsp_out;
    auto& used = request_net ? req_out_used_ : rsp_out_used_;
    // Among the permitted (always productive, hence never reversing) hops,
    // take the one whose target VC holds the fewest buffered flits — the
    // adaptive freedom of the west-first turn model. Deterministic
    // policies permit exactly one hop, so the scan degenerates to the old
    // single-candidate check.
    NocLink* best = nullptr;
    std::size_t best_dir = 0;
    for (std::uint8_t k = 0; k < hops.count; ++k) {
        const MeshDir hop = hops.dir[k];
        if (from.has_value()) {
            // A packet arriving from direction d travels away from d; every
            // policy here is minimal, so it never turns back.
            REALM_ENSURES(hop != *from, name() + ": 180-degree turn in mesh route");
        }
        const auto h = static_cast<std::size_t>(hop);
        NocLink* o = out[h];
        REALM_ENSURES(o != nullptr, name() + ": route leaves the mesh");
        if (used[h] || !o->can_push(flits, vc)) { continue; }
        if (best == nullptr || o->buffered_flits(vc) < best->buffered_flits(vc)) {
            best = o;
            best_dir = h;
        }
    }
    if (best == nullptr) { return nullptr; }
    used[best_dir] = true; // the caller pushes unconditionally into a grant
    return best;
}

void MeshRouter::service_network(bool request_net) {
    auto& in = request_net ? ports_.req_in : ports_.rsp_in;
    auto& used = request_net ? req_out_used_ : rsp_out_used_;
    auto& rr = request_net ? req_rr_ : rsp_rr_;
    auto& vc_rr = request_net ? req_vc_rr_ : rsp_vc_rr_;
    used.fill(false);

    // Every input port may advance one packet this cycle — the first
    // movable VC head in per-port priority order; the ejection port (like
    // the ring NI) and each output port take one packet at most. Rotating
    // input priority keeps merge points fair under sustained contention;
    // the pointer only moves when a packet moved, so idle ticks stay
    // no-ops. A port visits only its occupied VCs.
    bool eject_done = false;
    bool any_moved = false;
    std::uint8_t first_moved = 0;
    for (std::uint8_t k = 0; k < kMeshDirs; ++k) {
        const auto d = static_cast<std::uint8_t>((rr + k) % kMeshDirs);
        NocLink* link = in[d];
        if (link == nullptr) { continue; }
        const std::uint8_t occupied = link->occupied_vcs();
        if (occupied == 0) { continue; }
        bool port_moved = false;
        bool port_blocked = false;
        for (std::uint8_t j = 0; j < num_vcs_ && !port_moved; ++j) {
            const auto vc = static_cast<std::uint8_t>((vc_rr[d] + j) % num_vcs_);
            if ((occupied >> vc & 1U) == 0 || !link->can_pop(vc)) { continue; }
            const NocPacket& pkt = link->front(vc);
            const HopSet hops =
                permitted_hops(routing_, cols_, id_, pkt.dest, vc_route_class(pkt.vc));
            if (hops.empty()) {
                if (eject_done) {
                    port_blocked = true;
                    continue;
                }
                if (eject(pkt, request_net)) {
                    (void)link->pop(vc);
                    eject_done = true;
                    port_moved = true;
                    vc_rr[d] = static_cast<std::uint8_t>((vc + 1) % num_vcs_);
                } else {
                    port_blocked = true;
                }
                continue;
            }
            if (NocLink* o = pick_output(request_net, hops, pkt.flits, pkt.vc,
                                         static_cast<MeshDir>(d))) {
                o->push(link->pop(vc));
                ++forwarded_;
                port_moved = true;
                vc_rr[d] = static_cast<std::uint8_t>((vc + 1) % num_vcs_);
            } else {
                port_blocked = true;
            }
        }
        if (port_moved) {
            if (!any_moved) {
                any_moved = true;
                first_moved = d;
            }
        } else if (port_blocked) {
            ++stalls_;
        }
    }
    if (any_moved) { rr = static_cast<std::uint8_t>((first_moved + 1) % kMeshDirs); }
}

void MeshRouter::tick() {
    drain_response_stash();
    service_network(/*request_net=*/false);
    service_network(/*request_net=*/true);
    inject(
        [this](bool request_net, NodeId dest, std::uint32_t flits, std::uint8_t vc) {
            return route_out(request_net, dest, flits, vc);
        },
        [this](NodeId dest, std::uint8_t vc) {
            return static_cast<std::uint8_t>(
                permitted_hops(routing_, cols_, id_, dest, vc_route_class(vc)).dir[0]);
        });
    update_activity();
}

void MeshRouter::update_activity() {
    // Conservative idle contract, same shape as the ring node: a tick is a
    // no-op iff nothing this router consumes holds a flit (`empty()`, not
    // `can_pop()` — a flit pushed this cycle needs us next cycle). Credit
    // waits (including delayed credit returns) and link serialization
    // windows enable no new work by themselves; progress always rides on a
    // held flit, which keeps us awake through the checks below.
    for (std::size_t d = 0; d < kMeshDirs; ++d) {
        if (ports_.req_in[d] != nullptr && !ports_.req_in[d]->empty()) { return; }
        if (ports_.rsp_in[d] != nullptr && !ports_.rsp_in[d]->empty()) { return; }
    }
    if (local_ports_idle()) { idle_forever(); }
}

// ---------------------------------------------------------------------------
// NocMesh
// ---------------------------------------------------------------------------

namespace {

/// Node count of a rows x cols mesh, asserted to fit the 16-bit node ids.
NodeId mesh_nodes(NodeId rows, NodeId cols) {
    const std::uint32_t n = static_cast<std::uint32_t>(rows) * cols;
    REALM_EXPECTS(n <= 65535, "node ids are 16-bit");
    return static_cast<NodeId>(n);
}

/// Links of a rows x cols mesh: a forward and a reverse link per network
/// between every pair of neighbors.
std::size_t mesh_links(NodeId rows, NodeId cols) {
    const std::size_t pairs = std::size_t{rows} * (cols - 1U) + std::size_t{cols} * (rows - 1U);
    return 4 * pairs;
}

} // namespace

NocFlowConfig NocMesh::shard_safe(NocFlowConfig flow) {
    flow.credit_return_delay = std::max(
        flow.link_latency, std::max<std::uint32_t>(1, flow.credit_return_delay));
    return flow;
}

NocMesh::NocMesh(sim::SimContext& ctx, std::string name, NodeId rows,
                 NodeId cols, ic::AddrMap node_map,
                 std::vector<NodeId> subordinate_nodes,
                 std::vector<NodeId> manager_nodes, const std::vector<NodeId>& realm_nodes,
                 NocFlowConfig flow, RoutingPolicy routing,
                 std::vector<unsigned> tile_shards)
    : NocFabric{ctx, std::move(name), mesh_nodes(rows, cols), std::move(node_map),
                std::move(subordinate_nodes), std::move(manager_nodes), realm_nodes,
                shard_safe(flow), /*deferred_credits=*/true,
                // Every router<->router link is edge-registered: pushes stage
                // producer-side and commit at the cycle-edge flush, which is
                // what makes cross-shard traffic order-independent within a
                // cycle. The routing policy fixes the per-link VC count:
                // one per route class and message class.
                LinkPlan{mesh_links(rows, cols), link_num_vcs(routing), true}},
      cols_{cols}, routing_{routing},
      stripe_shards_{std::min<unsigned>(std::max(1U, ctx.shards()), cols)},
      tile_shards_{std::move(tile_shards)} {
    const NodeId n = num_nodes();
    if (!tile_shards_.empty()) {
        REALM_EXPECTS(tile_shards_.size() == n, "tile_shards must map every mesh node");
        const unsigned shards = std::max(1U, ctx.shards());
        for (const unsigned s : tile_shards_) {
            REALM_EXPECTS(s < shards, "tile_shards entry out of shard range");
        }
    }

    // Links first, per tile. Each neighbor pair gets a forward (east/south)
    // and a reverse (west/north) link per network.
    std::vector<MeshRouter::Ports> ports(n);
    const auto connect = [&](NodeId a, NodeId b, MeshDir dir, const char* axis,
                             const char* fwd, const char* rev) {
        const auto d = static_cast<std::size_t>(dir);
        const auto o = static_cast<std::size_t>(opposite(dir));
        const std::string i = std::to_string(a);
        NocLink& req_fwd = add_link(ctx, std::string{"."} + axis + "req_" + fwd + i);
        NocLink& req_rev = add_link(ctx, std::string{"."} + axis + "req_" + rev + i);
        NocLink& rsp_fwd = add_link(ctx, std::string{"."} + axis + "rsp_" + fwd + i);
        NocLink& rsp_rev = add_link(ctx, std::string{"."} + axis + "rsp_" + rev + i);
        ports[a].req_out[d] = &req_fwd;
        ports[b].req_in[o] = &req_fwd;
        ports[b].req_out[o] = &req_rev;
        ports[a].req_in[d] = &req_rev;
        ports[a].rsp_out[d] = &rsp_fwd;
        ports[b].rsp_in[o] = &rsp_fwd;
        ports[b].rsp_out[o] = &rsp_rev;
        ports[a].rsp_in[d] = &rsp_rev;
    };
    for (NodeId i = 0; i < n; ++i) {
        if (i % cols != cols - 1U) { connect(i, i + 1, MeshDir::kEast, "h", "e", "w"); }
        if (i / cols != rows - 1U) { connect(i, i + cols, MeshDir::kSouth, "v", "s", "n"); }
    }
    build_egress(ctx);
    // Routers last, in node order (construction order fixes tick order).
    for (NodeId i = 0; i < n; ++i) {
        const sim::ShardScope scope{ctx, shard_of_node(i)};
        add_router(std::make_unique<MeshRouter>(ctx, this->name() + ".r" + std::to_string(i),
                                                i, *this, cols, ports[i], routing_));
    }
}

} // namespace realm::noc
