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
                       NodeId cols, ic::AddrMap map,
                       axi::AxiChannel* local_mgr,
                       std::vector<axi::AxiChannel*> egress, Ports ports,
                       const NocFlowConfig& fc, CreditBook* book,
                       RoutingPolicy routing, bool deferred_credits)
    : Component{ctx, std::move(name)},
      id_{node_id},
      cols_{cols},
      map_{std::move(map)},
      local_mgr_{local_mgr},
      egress_{std::move(egress)},
      ports_{ports},
      routing_{routing},
      num_vcs_{route_num_vcs(routing)},
      ni_{ctx, this->name(), node_id, fc, book, routing, deferred_credits} {
    // Activity-aware kernel wiring: every neighbor link feeding this router
    // has exactly one consumer (this router), so claiming the push hooks is
    // safe; the local manager and egress channels follow the ring-NI scheme.
    for (std::size_t d = 0; d < kMeshDirs; ++d) {
        if (ports_.req_in[d] != nullptr) { ports_.req_in[d]->set_wake_on_push(this); }
        if (ports_.rsp_in[d] != nullptr) { ports_.rsp_in[d]->set_wake_on_push(this); }
    }
    if (local_mgr_ != nullptr) { local_mgr_->wake_subordinate_on_request(*this); }
    for (axi::AxiChannel* ch : egress_) {
        if (ch != nullptr) { ch->wake_manager_on_response(*this); }
    }
}

void MeshRouter::reset() {
    ni_.reset();
    req_rr_ = 0;
    rsp_rr_ = 0;
    req_vc_rr_.fill(0);
    rsp_vc_rr_.fill(0);
    req_out_used_.fill(false);
    rsp_out_used_.fill(false);
    injected_ = 0;
    ejected_ = 0;
    forwarded_ = 0;
    stalls_ = 0;
}

NocLink* MeshRouter::route_out(bool request_net, NodeId dest,
                               std::uint32_t flits, std::uint8_t vc) {
    const HopSet hops = permitted_hops(routing_, cols_, id_, dest, vc);
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
    // no-ops.
    bool eject_done = false;
    bool any_moved = false;
    std::uint8_t first_moved = 0;
    for (std::uint8_t k = 0; k < kMeshDirs; ++k) {
        const auto d = static_cast<std::uint8_t>((rr + k) % kMeshDirs);
        NocLink* link = in[d];
        if (link == nullptr) { continue; }
        bool port_moved = false;
        bool port_blocked = false;
        for (std::uint8_t j = 0; j < num_vcs_ && !port_moved; ++j) {
            const auto vc = static_cast<std::uint8_t>((vc_rr[d] + j) % num_vcs_);
            if (!link->can_pop(vc)) { continue; }
            const NocPacket& pkt = link->front(vc);
            const HopSet hops =
                permitted_hops(routing_, cols_, id_, pkt.dest, pkt.vc);
            if (hops.empty()) {
                if (eject_done) {
                    port_blocked = true;
                    continue;
                }
                const bool ok = request_net ? ni_.try_eject_request(pkt, egress_)
                                            : ni_.try_eject_response(pkt, local_mgr_);
                if (ok) {
                    (void)link->pop(vc);
                    ++ejected_;
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

void MeshRouter::inject_requests() {
    if (local_mgr_ == nullptr) { return; }
    if (ni_.inject_requests(*local_mgr_, map_,
                            [this](NodeId dest, std::uint32_t flits,
                                   std::uint8_t vc) {
                                return route_out(/*request_net=*/true, dest, flits,
                                                 vc);
                            })) {
        ++injected_;
    }
}

void MeshRouter::inject_responses() {
    if (egress_.empty()) { return; }
    if (ni_.inject_responses(egress_,
                             [this](NodeId dest, std::uint32_t flits,
                                    std::uint8_t vc) {
                                 return route_out(/*request_net=*/false, dest,
                                                  flits, vc);
                             })) {
        ++injected_;
    }
}

void MeshRouter::tick() {
    ni_.drain_response_stash(local_mgr_);
    service_network(/*request_net=*/false);
    service_network(/*request_net=*/true);
    inject_responses();
    inject_requests();
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
    if (local_mgr_ != nullptr && !local_mgr_->requests_empty()) { return; }
    for (const axi::AxiChannel* ch : egress_) {
        if (ch != nullptr && !ch->responses_empty()) { return; }
    }
    // A stashed response only progresses as the local manager drains,
    // which raises no wake — never sleep on one.
    if (ni_.has_stashed_responses()) { return; }
    idle_forever();
}

// ---------------------------------------------------------------------------
// NocMesh
// ---------------------------------------------------------------------------

NocMesh::NocMesh(sim::SimContext& ctx, std::string name, NodeId rows,
                 NodeId cols, ic::AddrMap node_map,
                 std::vector<NodeId> subordinate_nodes,
                 std::vector<NodeId> manager_nodes, NocFlowConfig flow,
                 RoutingPolicy routing, std::vector<unsigned> tile_shards)
    : rows_{rows}, cols_{cols}, tile_shards_{std::move(tile_shards)},
      flow_{flow}, routing_{routing} {
    const std::uint32_t n32 = static_cast<std::uint32_t>(rows) * cols;
    REALM_EXPECTS(n32 >= 2, "a mesh needs at least two nodes");
    REALM_EXPECTS(n32 <= 65535, "node ids are 16-bit");
    // The mesh always runs the shard-safe transport — edge-registered
    // neighbor links and cycle-edge credit returns — so its behaviour never
    // depends on the shard count (including 1). Deferred returns need at
    // least one cycle of return latency; with a pipelined fabric
    // (link_latency > 1) they need the full link latency, so every
    // cross-shard channel — flit links *and* credit returns — carries the
    // conservative lookahead the batched barrier relies on.
    flow_.credit_return_delay = std::max(
        flow_.link_latency,
        std::max<std::uint32_t>(1, flow_.credit_return_delay));
    flow_.validate();
    const auto n = static_cast<NodeId>(n32);
    stripe_shards_ = std::min<unsigned>(std::max(1U, ctx.shards()),
                                        static_cast<unsigned>(cols));
    if (!tile_shards_.empty()) {
        REALM_EXPECTS(tile_shards_.size() == n32,
                      "tile_shards must map every mesh node");
        const unsigned shards = std::max(1U, ctx.shards());
        for (const unsigned s : tile_shards_) {
            REALM_EXPECTS(s < shards, "tile_shards entry out of shard range");
        }
    }
    book_ = std::make_unique<CreditBook>(n, std::move(subordinate_nodes),
                                         std::move(manager_nodes), flow_);
    const std::vector<NodeId>& subs = book_->subordinates();
    const std::vector<NodeId>& mgrs = book_->managers();

    // Channels and links first (plain objects, no tick order concerns).
    // The routing policy fixes the per-link VC count (O1TURN needs one VC
    // per route class). Every router<->router link is edge-registered:
    // pushes stage producer-side and commit at the cycle-edge flush, which
    // is what makes cross-shard traffic order-independent within a cycle.
    const std::uint8_t vcs = route_num_vcs(routing_);
    const auto make_link = [&](std::vector<std::unique_ptr<NocLink>>& v,
                               NodeId i, const char* tag) {
        v[i] = std::make_unique<NocLink>(ctx, name + tag + std::to_string(i), flow_,
                                         vcs, /*edge_registered=*/true);
    };
    h_req_fwd_.resize(n);
    h_req_rev_.resize(n);
    h_rsp_fwd_.resize(n);
    h_rsp_rev_.resize(n);
    v_req_fwd_.resize(n);
    v_req_rev_.resize(n);
    v_rsp_fwd_.resize(n);
    v_rsp_rev_.resize(n);
    for (const NodeId m : mgrs) {
        const sim::ShardScope scope{ctx, shard_of_node(m)};
        mgr_ports_.push_back(std::make_unique<axi::AxiChannel>(
            ctx, name + ".mgr" + std::to_string(m)));
    }
    for (NodeId i = 0; i < n; ++i) {
        const sim::ShardScope scope{ctx, shard_of_node(i)};
        if (i % cols != cols - 1U) { // east neighbor exists
            make_link(h_req_fwd_, i, ".hreq_e");
            make_link(h_req_rev_, i, ".hreq_w");
            make_link(h_rsp_fwd_, i, ".hrsp_e");
            make_link(h_rsp_rev_, i, ".hrsp_w");
        }
        if (i / cols != rows - 1U) { // south neighbor exists
            make_link(v_req_fwd_, i, ".vreq_s");
            make_link(v_req_rev_, i, ".vreq_n");
            make_link(v_rsp_fwd_, i, ".vrsp_s");
            make_link(v_rsp_rev_, i, ".vrsp_n");
        }
    }
    egress_.resize(subs.size());
    for (std::size_t slot = 0; slot < subs.size(); ++slot) {
        const NodeId s = subs[slot];
        const sim::ShardScope scope{ctx, shard_of_node(s)};
        std::vector<axi::AxiChannel*> egress_raw;
        for (const NodeId m : mgrs) {
            egress_[slot].push_back(std::make_unique<axi::AxiChannel>(
                ctx, name + ".eg" + std::to_string(s) + "_" + std::to_string(m),
                staging_depth(flow_)));
            wire_credit_returns(ctx, *egress_[slot].back(), book_->req(s, m),
                                flow_, /*deferred=*/true);
            egress_raw.push_back(egress_[slot].back().get());
        }
        sub_ports_.push_back(std::make_unique<axi::AxiChannel>(
            ctx, name + ".sub" + std::to_string(s)));
        muxes_.push_back(std::make_unique<ic::AxiMux>(ctx, name + ".mux" + std::to_string(s),
                                                      std::move(egress_raw),
                                                      *sub_ports_.back()));
    }

    // Routers last, in node order (construction order fixes tick order).
    const auto dir = [](MeshDir d) { return static_cast<std::size_t>(d); };
    for (NodeId i = 0; i < n; ++i) {
        const sim::ShardScope scope{ctx, shard_of_node(i)};
        std::vector<axi::AxiChannel*> egress_raw;
        if (const NodeId slot = book_->subordinate_slot(i); slot != CreditBook::kNoSlot) {
            for (const auto& ch : egress_[slot]) { egress_raw.push_back(ch.get()); }
        }
        const NodeId mgr_slot = book_->manager_slot(i);
        axi::AxiChannel* local_mgr =
            mgr_slot == CreditBook::kNoSlot ? nullptr : mgr_ports_[mgr_slot].get();

        MeshRouter::Ports p;
        if (i % cols != cols - 1U) { // east neighbor at i+1
            p.req_out[dir(MeshDir::kEast)] = h_req_fwd_[i].get();
            p.req_in[dir(MeshDir::kEast)] = h_req_rev_[i].get();
            p.rsp_out[dir(MeshDir::kEast)] = h_rsp_fwd_[i].get();
            p.rsp_in[dir(MeshDir::kEast)] = h_rsp_rev_[i].get();
        }
        if (i % cols != 0U) { // west neighbor at i-1
            p.req_out[dir(MeshDir::kWest)] = h_req_rev_[i - 1].get();
            p.req_in[dir(MeshDir::kWest)] = h_req_fwd_[i - 1].get();
            p.rsp_out[dir(MeshDir::kWest)] = h_rsp_rev_[i - 1].get();
            p.rsp_in[dir(MeshDir::kWest)] = h_rsp_fwd_[i - 1].get();
        }
        if (i / cols != rows - 1U) { // south neighbor at i+cols
            p.req_out[dir(MeshDir::kSouth)] = v_req_fwd_[i].get();
            p.req_in[dir(MeshDir::kSouth)] = v_req_rev_[i].get();
            p.rsp_out[dir(MeshDir::kSouth)] = v_rsp_fwd_[i].get();
            p.rsp_in[dir(MeshDir::kSouth)] = v_rsp_rev_[i].get();
        }
        if (i / cols != 0U) { // north neighbor at i-cols
            p.req_out[dir(MeshDir::kNorth)] = v_req_rev_[i - cols].get();
            p.req_in[dir(MeshDir::kNorth)] = v_req_fwd_[i - cols].get();
            p.rsp_out[dir(MeshDir::kNorth)] = v_rsp_rev_[i - cols].get();
            p.rsp_in[dir(MeshDir::kNorth)] = v_rsp_fwd_[i - cols].get();
        }
        routers_.push_back(std::make_unique<MeshRouter>(
            ctx, name + ".r" + std::to_string(i), i, cols, node_map, local_mgr,
            std::move(egress_raw), p, flow_, book_.get(),
            routing_, /*deferred_credits=*/true));
    }
}

axi::AxiChannel& NocMesh::manager_port(NodeId node) {
    const NodeId slot = book_->manager_slot(node);
    REALM_EXPECTS(slot != CreditBook::kNoSlot, "node hosts no manager");
    return *mgr_ports_[slot];
}

axi::AxiChannel& NocMesh::subordinate_port(NodeId node) {
    const NodeId slot = book_->subordinate_slot(node);
    REALM_EXPECTS(slot != CreditBook::kNoSlot, "node hosts no subordinate");
    return *sub_ports_[slot];
}

std::uint64_t NocMesh::total_forwarded() const noexcept {
    std::uint64_t total = 0;
    for (const auto& r : routers_) { total += r->forwarded(); }
    return total;
}

std::uint64_t NocMesh::total_stalls() const noexcept {
    std::uint64_t total = 0;
    for (const auto& r : routers_) { total += r->stall_cycles(); }
    return total;
}

std::uint64_t NocMesh::total_mux_w_stalls() const noexcept {
    std::uint64_t total = 0;
    for (const auto& m : muxes_) { total += m->w_stall_cycles(); }
    return total;
}

void NocMesh::check_flow_invariants() const {
    book_->check_conserved();
    const auto check_links = [](const std::vector<std::unique_ptr<NocLink>>& v) {
        for (const auto& link : v) {
            if (link != nullptr) { link->check_bounded(); }
        }
    };
    check_links(h_req_fwd_);
    check_links(h_req_rev_);
    check_links(h_rsp_fwd_);
    check_links(h_rsp_rev_);
    check_links(v_req_fwd_);
    check_links(v_req_rev_);
    check_links(v_rsp_fwd_);
    check_links(v_rsp_rev_);
    const std::vector<NodeId>& subs = book_->subordinates();
    const std::vector<NodeId>& mgrs = book_->managers();
    for (std::size_t slot = 0; slot < subs.size(); ++slot) {
        const NocNi& ni = routers_[subs[slot]]->ni();
        for (std::size_t m = 0; m < mgrs.size(); ++m) {
            check_staging_invariants(*egress_[slot][m], book_->req(subs[slot], mgrs[m]),
                                     flow_, ni.stashed_request_flits(mgrs[m]));
        }
    }
    // Response reorder stashes are bounded by the response pools: a stashed
    // response still holds its end-to-end credits. Only subordinates source
    // responses and only managers receive them (the book holds exactly
    // those pools).
    for (const NodeId d : mgrs) {
        for (const NodeId s : subs) {
            REALM_ENSURES(routers_[d]->ni().stashed_response_flits(s) <=
                              book_->rsp(d, s).in_flight(),
                          "stashed response flits without matching in-flight credits");
        }
    }
}

} // namespace realm::noc
