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

void NocNode::ring_hop(NocLink& in, NocLink& out, bool request_ring) {
    if (!in.can_pop()) { return; }
    const NocPacket& pkt = in.front();
    if (pkt.dest == id_) {
        if (eject(pkt, request_ring)) {
            (void)in.pop();
        } else {
            ++stalls_;
        }
        return;
    }
    if (out.can_push(pkt)) {
        out.push(in.pop());
        ++forwarded_;
    } else {
        ++stalls_;
    }
}

void NocNode::tick() {
    drain_response_stash();
    ring_hop(*rsp_in_, *rsp_out_, /*request_ring=*/false);
    ring_hop(*req_in_, *req_out_, /*request_ring=*/true);
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
