#include "noc/node.hpp"

#include "sim/check.hpp"

#include <utility>

namespace realm::noc {

NocNode::NocNode(sim::SimContext& ctx, std::string name, NodeId node_id,
                 ic::AddrMap map, axi::AxiChannel* local_mgr,
                 std::vector<axi::AxiChannel*> egress, NocLink& req_in,
                 NocLink& req_out, NocLink& rsp_in, NocLink& rsp_out,
                 const NocFlowConfig& fc, CreditBook* book)
    : Component{ctx, std::move(name)},
      id_{node_id},
      map_{std::move(map)},
      local_mgr_{local_mgr},
      egress_{std::move(egress)},
      req_in_{&req_in},
      req_out_{&req_out},
      rsp_in_{&rsp_in},
      rsp_out_{&rsp_out},
      ni_{ctx, this->name(), node_id, fc, book} {
    // Activity-aware kernel wiring: everything this node consumes wakes it.
    // Each ring link has exactly one consumer (the next node downstream), so
    // claiming the push hook here is safe.
    req_in.set_wake_on_push(this);
    rsp_in.set_wake_on_push(this);
    if (local_mgr_ != nullptr) { local_mgr_->wake_subordinate_on_request(*this); }
    for (axi::AxiChannel* ch : egress_) {
        if (ch != nullptr) { ch->wake_manager_on_response(*this); }
    }
}

void NocNode::reset() {
    ni_.reset();
    injected_ = 0;
    ejected_ = 0;
    forwarded_ = 0;
    ring_stalls_ = 0;
}

void NocNode::ring_hop(NocLink& in, NocLink& out, bool request_ring) {
    if (!in.can_pop()) { return; }
    const NocPacket& pkt = in.front();
    if (pkt.dest == id_) {
        const bool ok = request_ring ? ni_.try_eject_request(pkt, egress_)
                                     : ni_.try_eject_response(pkt, local_mgr_);
        if (ok) {
            (void)in.pop();
            ++ejected_;
        } else {
            ++ring_stalls_;
        }
        return;
    }
    if (out.can_push(pkt)) {
        out.push(in.pop());
        ++forwarded_;
    } else {
        ++ring_stalls_;
    }
}

void NocNode::inject_requests() {
    if (local_mgr_ == nullptr) { return; }
    // Single-lane ring: every destination leaves through the one request
    // link; the NI supplies the worm length so the link can gate on
    // serialization and VC space.
    if (ni_.inject_requests(*local_mgr_, map_,
                            [this](NodeId, std::uint32_t flits,
                                   std::uint8_t vc) {
                                return req_out_->can_push(flits, vc) ? req_out_
                                                                     : nullptr;
                            })) {
        ++injected_;
    }
}

void NocNode::inject_responses() {
    if (egress_.empty()) { return; }
    if (ni_.inject_responses(egress_,
                             [this](NodeId, std::uint32_t flits,
                                    std::uint8_t vc) {
                                 return rsp_out_->can_push(flits, vc) ? rsp_out_
                                                                      : nullptr;
                             })) {
        ++injected_;
    }
}

void NocNode::tick() {
    ni_.drain_response_stash(local_mgr_);
    ring_hop(*rsp_in_, *rsp_out_, /*request_ring=*/false);
    ring_hop(*req_in_, *req_out_, /*request_ring=*/true);
    inject_responses();
    inject_requests();
    update_activity();
}

void NocNode::update_activity() {
    // Conservative idle contract: every tick is a no-op iff nothing this
    // node consumes holds a flit. Uses `empty()`, not `can_pop()`: a flit
    // pushed this cycle is not yet poppable but does need us next cycle.
    // Pending W routing state, same-ID ordering stalls, and credit waits
    // (owned by `ni_`) only progress while a flit is held somewhere we
    // drain from, all of which arrive through wired links; a link's
    // serialization window expiring enables no new work by itself.
    if (!req_in_->empty() || !rsp_in_->empty()) { return; }
    if (local_mgr_ != nullptr && !local_mgr_->requests_empty()) { return; }
    for (const axi::AxiChannel* ch : egress_) {
        if (ch != nullptr && !ch->responses_empty()) { return; }
    }
    if (ni_.has_stashed_responses()) { return; }
    idle_forever();
}

} // namespace realm::noc
