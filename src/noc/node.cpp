#include "noc/node.hpp"

#include <utility>

namespace realm::noc {

NocNode::NocNode(sim::SimContext& ctx, std::string name, NodeId node_id,
                 NocFabric& fabric, NocLink& req_in, NocLink& req_out,
                 NocLink& rsp_in, NocLink& rsp_out)
    : NocRouter{ctx, std::move(name), node_id, fabric},
      req_in_{&req_in},
      req_out_{&req_out},
      rsp_in_{&rsp_in},
      rsp_out_{&rsp_out} {
    // Each ring link has exactly one consumer (the next node downstream),
    // so claiming the push hook here is safe.
    req_in.set_wake_on_push(this);
    rsp_in.set_wake_on_push(this);
}

void NocNode::ring_hop(NocLink& in, NocLink& out, bool request_ring, std::uint8_t& vc_rr) {
    const std::uint8_t occupied = in.occupied_vcs();
    if (occupied == 0) { return; }
    const std::uint8_t vcs = in.num_vcs();
    bool blocked = false;
    for (std::uint8_t j = 0; j < vcs; ++j) {
        const auto vc = static_cast<std::uint8_t>((vc_rr + j) % vcs);
        if ((occupied >> vc & 1U) == 0 || !in.can_pop(vc)) { continue; }
        const NocPacket& pkt = in.front(vc);
        if (pkt.dest == id_) {
            if (!eject(pkt, request_ring)) {
                blocked = true;
                continue;
            }
            (void)in.pop(vc);
        } else if (out.can_push(pkt)) {
            out.push(in.pop(vc));
            ++forwarded_;
        } else {
            blocked = true;
            continue;
        }
        vc_rr = static_cast<std::uint8_t>((vc + 1) % vcs);
        return;
    }
    if (blocked) { ++stalls_; }
}

void NocNode::tick() {
    drain_response_stash();
    ring_hop(*rsp_in_, *rsp_out_, /*request_ring=*/false, rsp_vc_rr_);
    ring_hop(*req_in_, *req_out_, /*request_ring=*/true, req_vc_rr_);
    // Single-lane ring: every destination leaves through the one link of
    // its network (response output 0); the NI supplies the worm length so
    // the link can gate on serialization and VC space.
    inject(
        [this](bool request_net, NodeId, std::uint32_t flits, std::uint8_t vc) {
            NocLink* out = request_net ? req_out_ : rsp_out_;
            return out->can_push(flits, vc) ? out : nullptr;
        },
        [](NodeId, std::uint8_t) { return std::uint8_t{0}; });
    // Idle contract: `empty()`, not `can_pop()` — a flit pushed this cycle
    // is not yet poppable but does need us next cycle. A link's
    // serialization window expiring enables no new work by itself.
    if (req_in_->empty() && rsp_in_->empty() && local_ports_idle()) { idle_forever(); }
}

} // namespace realm::noc
