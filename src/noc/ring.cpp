#include "noc/ring.hpp"

#include "sim/check.hpp"

#include <algorithm>
#include <utility>

namespace realm::noc {

NocRing::NocRing(sim::SimContext& ctx, std::string name, NodeId num_nodes,
                 ic::AddrMap node_map, std::vector<NodeId> subordinate_nodes,
                 std::vector<NodeId> manager_nodes, NocFlowConfig flow)
    : flow_{flow} {
    REALM_EXPECTS(num_nodes >= 2, "a ring needs at least two nodes");
    flow_.validate();
    book_ = std::make_unique<CreditBook>(num_nodes, std::move(subordinate_nodes),
                                         std::move(manager_nodes), flow_);
    const std::vector<NodeId>& subs = book_->subordinates();
    const std::vector<NodeId>& mgrs = book_->managers();

    // Channels and links first (plain objects, no tick order concerns).
    for (const NodeId m : mgrs) {
        mgr_ports_.push_back(std::make_unique<axi::AxiChannel>(
            ctx, name + ".mgr" + std::to_string(m)));
    }
    for (NodeId i = 0; i < num_nodes; ++i) {
        req_links_.push_back(std::make_unique<NocLink>(
            ctx, name + ".req" + std::to_string(i), flow_));
        rsp_links_.push_back(std::make_unique<NocLink>(
            ctx, name + ".rsp" + std::to_string(i), flow_));
    }
    egress_.resize(subs.size());
    for (std::size_t slot = 0; slot < subs.size(); ++slot) {
        const NodeId s = subs[slot];
        std::vector<axi::AxiChannel*> egress_raw;
        for (const NodeId m : mgrs) {
            egress_[slot].push_back(std::make_unique<axi::AxiChannel>(
                ctx, name + ".eg" + std::to_string(s) + "_" + std::to_string(m),
                staging_depth(flow_)));
            wire_credit_returns(ctx, *egress_[slot].back(), book_->req(s, m),
                                flow_);
            egress_raw.push_back(egress_[slot].back().get());
        }
        sub_ports_.push_back(std::make_unique<axi::AxiChannel>(
            ctx, name + ".sub" + std::to_string(s)));
        muxes_.push_back(std::make_unique<ic::AxiMux>(ctx, name + ".mux" + std::to_string(s),
                                                      std::move(egress_raw),
                                                      *sub_ports_.back()));
    }

    // Nodes last; link i feeds node (i+1) and node i drives link i.
    for (NodeId i = 0; i < num_nodes; ++i) {
        std::vector<axi::AxiChannel*> egress_raw;
        if (const NodeId slot = book_->subordinate_slot(i); slot != CreditBook::kNoSlot) {
            for (const auto& ch : egress_[slot]) { egress_raw.push_back(ch.get()); }
        }
        const NodeId mgr_slot = book_->manager_slot(i);
        axi::AxiChannel* local_mgr =
            mgr_slot == CreditBook::kNoSlot ? nullptr : mgr_ports_[mgr_slot].get();
        const NodeId prev = static_cast<NodeId>((i + num_nodes - 1) % num_nodes);
        nodes_.push_back(std::make_unique<NocNode>(
            ctx, name + ".node" + std::to_string(i), i, node_map, local_mgr,
            std::move(egress_raw), *req_links_[prev],
            *req_links_[i], *rsp_links_[prev], *rsp_links_[i], flow_, book_.get()));
    }
}

axi::AxiChannel& NocRing::manager_port(NodeId node) {
    const NodeId slot = book_->manager_slot(node);
    REALM_EXPECTS(slot != CreditBook::kNoSlot, "node hosts no manager");
    return *mgr_ports_[slot];
}

axi::AxiChannel& NocRing::subordinate_port(NodeId node) {
    const NodeId slot = book_->subordinate_slot(node);
    REALM_EXPECTS(slot != CreditBook::kNoSlot, "node hosts no subordinate");
    return *sub_ports_[slot];
}

std::uint64_t NocRing::total_forwarded() const noexcept {
    std::uint64_t total = 0;
    for (const auto& n : nodes_) { total += n->forwarded(); }
    return total;
}

std::uint64_t NocRing::total_ring_stalls() const noexcept {
    std::uint64_t total = 0;
    for (const auto& n : nodes_) { total += n->ring_stall_cycles(); }
    return total;
}

std::uint64_t NocRing::total_mux_w_stalls() const noexcept {
    std::uint64_t total = 0;
    for (const auto& m : muxes_) { total += m->w_stall_cycles(); }
    return total;
}

void NocRing::check_flow_invariants() const {
    book_->check_conserved();
    for (const auto& link : req_links_) { link->check_bounded(); }
    for (const auto& link : rsp_links_) { link->check_bounded(); }
    const std::vector<NodeId>& subs = book_->subordinates();
    const std::vector<NodeId>& mgrs = book_->managers();
    for (std::size_t slot = 0; slot < subs.size(); ++slot) {
        const NocNi& ni = nodes_[subs[slot]]->ni();
        for (std::size_t m = 0; m < mgrs.size(); ++m) {
            // The ring is single-path, so the NI reorder stash is always
            // empty; pass it anyway to keep the invariant honest.
            check_staging_invariants(*egress_[slot][m], book_->req(subs[slot], mgrs[m]),
                                     flow_, ni.stashed_request_flits(mgrs[m]));
        }
    }
}

} // namespace realm::noc
