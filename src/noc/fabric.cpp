#include "noc/fabric.hpp"

#include "realm/realm_unit.hpp"
#include "sim/check.hpp"

#include <span>
#include <utility>

namespace realm::noc {

// ---------------------------------------------------------------------------
// NocFabric
// ---------------------------------------------------------------------------

NocFabric::NocFabric(const sim::SimContext& ctx, std::string name, NodeId num_nodes,
                     ic::AddrMap node_map, std::vector<NodeId> subordinate_nodes,
                     std::vector<NodeId> manager_nodes,
                     const std::vector<NodeId>& realm_nodes, const NocFlowConfig& flow,
                     bool deferred_credits, const LinkPlan& links)
    : name_{std::move(name)}, flow_{flow}, map_{std::move(node_map)}, link_plan_{links},
      links_(links.count) {
    REALM_EXPECTS(num_nodes >= 2, "a NoC needs at least two nodes");
    flow_.validate();
    // Left uninitialised: a slot is built when a flit lands in it.
    link_slots_ = std::make_unique_for_overwrite<NocLink::Slot[]>(
        links.count * NocLink::slots_needed(flow_, links.num_vcs));
    book_ = std::make_unique<CreditBook>(ctx, num_nodes, std::move(subordinate_nodes),
                                         std::move(manager_nodes), flow_, deferred_credits);
    std::vector<bool> has_realm(num_nodes, false);
    for (const NodeId r : realm_nodes) {
        REALM_EXPECTS(book_->manager_slot(r) != CreditBook::kNoSlot,
                      name_ + ": REALM node " + std::to_string(r) + " hosts no manager");
        has_realm[r] = true;
    }
    for (const NodeId m : book_->managers()) {
        const std::string port = name_ + ".mgr" + std::to_string(m);
        mgr_ports_.push_back(has_realm[m] ? rt::make_downstream_channel(ctx, port)
                                          : std::make_unique<axi::AxiChannel>(ctx, port));
    }
}

NocLink& NocFabric::add_link(const sim::SimContext& ctx, const std::string& tag) {
    REALM_EXPECTS(links_built_ < links_.size(),
                  name_ + ": more links than the " + std::to_string(links_.size()) +
                      " declared");
    const std::size_t per_link = NocLink::slots_needed(flow_, link_plan_.num_vcs);
    const std::span<NocLink::Slot> slots{link_slots_.get() + links_built_ * per_link,
                                         per_link};
    return links_[links_built_++].emplace(ctx, name_ + tag, flow_, slots,
                                          link_plan_.num_vcs, link_plan_.edge_registered);
}

void NocFabric::build_egress(sim::SimContext& ctx) {
    REALM_EXPECTS(links_built_ == links_.size(),
                  name_ + ": " + std::to_string(links_built_) + " links built, " +
                      std::to_string(links_.size()) + " declared");
    const std::vector<NodeId>& subs = book_->subordinates();
    const std::vector<NodeId>& mgrs = book_->managers();
    egress_.resize(subs.size());
    for (std::size_t slot = 0; slot < subs.size(); ++slot) {
        const NodeId s = subs[slot];
        const sim::ShardScope scope{ctx, shard_of_node(s)};
        std::vector<axi::AxiChannel*> lanes;
        lanes.reserve(mgrs.size());
        egress_[slot].reserve(mgrs.size());
        for (const NodeId m : mgrs) {
            egress_[slot].push_back(std::make_unique<axi::AxiChannel>(
                ctx, name_ + ".eg" + std::to_string(s) + "_" + std::to_string(m),
                staging_depth(flow_)));
            wire_credit_returns(*egress_[slot].back(), book_->req(s, m), flow_);
            lanes.push_back(egress_[slot].back().get());
        }
        sub_ports_.push_back(std::make_unique<axi::AxiChannel>(
            ctx, name_ + ".sub" + std::to_string(s)));
        muxes_.push_back(std::make_unique<ic::AxiMux>(
            ctx, name_ + ".mux" + std::to_string(s), std::move(lanes), *sub_ports_.back()));
    }
}

void NocFabric::add_router(std::unique_ptr<NocRouter> router) {
    REALM_EXPECTS(router->id() == routers_.size(), "routers are added in node order");
    routers_.push_back(std::move(router));
}

axi::AxiChannel& NocFabric::manager_port(NodeId node) {
    const NodeId slot = book_->manager_slot(node);
    REALM_EXPECTS(slot != CreditBook::kNoSlot, "node hosts no manager");
    return *mgr_ports_[slot];
}

axi::AxiChannel& NocFabric::subordinate_port(NodeId node) {
    const NodeId slot = book_->subordinate_slot(node);
    REALM_EXPECTS(slot != CreditBook::kNoSlot, "node hosts no subordinate");
    return *sub_ports_[slot];
}

std::uint64_t NocFabric::total_forwarded() const noexcept {
    std::uint64_t total = 0;
    for (const auto& r : routers_) { total += r->forwarded(); }
    return total;
}

std::uint64_t NocFabric::total_mux_w_stalls() const noexcept {
    std::uint64_t total = 0;
    for (const auto& m : muxes_) { total += m->w_stall_cycles(); }
    return total;
}

std::uint64_t NocFabric::total_mux_rsp_holds() const noexcept {
    std::uint64_t total = 0;
    for (const auto& m : muxes_) { total += m->rsp_hold_cycles(); }
    return total;
}

void NocFabric::check_flow_invariants() const {
    book_->check_conserved();
    for (const auto& link : links_) { link->check_bounded(); }
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
    // reserved response still holds its end-to-end credits, and an
    // unreserved one is among the flits its manager is still owed. Only
    // subordinates source responses and only managers receive them (the
    // book holds exactly those pools).
    for (const NodeId d : mgrs) {
        const NocNi& ni = routers_[d]->ni();
        for (const NodeId s : subs) {
            REALM_ENSURES(ni.stashed_response_flits(s) <=
                              book_->rsp(d, s).in_flight() + ni.unreserved_response_flits(s),
                          "stashed response flits without matching in-flight credits");
        }
    }
}

// ---------------------------------------------------------------------------
// NocRouter
// ---------------------------------------------------------------------------

NocRouter::NocRouter(sim::SimContext& ctx, std::string name, NodeId node,
                     NocFabric& fabric, RoutingPolicy routing)
    : Component{ctx, std::move(name)},
      id_{node},
      map_{&fabric.map_},
      local_mgr_{nullptr},
      ni_{ctx, this->name(), node, fabric.flow_, fabric.book_.get(), routing} {
    if (const NodeId slot = fabric.book_->manager_slot(node); slot != CreditBook::kNoSlot) {
        local_mgr_ = fabric.mgr_ports_[slot].get();
        local_mgr_->wake_subordinate_on_request(*this);
    }
    if (const NodeId slot = fabric.book_->subordinate_slot(node);
        slot != CreditBook::kNoSlot) {
        egress_.reserve(fabric.egress_[slot].size());
        for (const auto& ch : fabric.egress_[slot]) {
            egress_.push_back(ch.get());
            ch->wake_manager_on_response(*this);
        }
    }
}

} // namespace realm::noc
