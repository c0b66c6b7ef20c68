#include "noc/ring.hpp"

#include "noc/node.hpp"

#include <memory>
#include <utility>

namespace realm::noc {

NocRing::NocRing(sim::SimContext& ctx, std::string name, NodeId num_nodes,
                 ic::AddrMap node_map, std::vector<NodeId> subordinate_nodes,
                 std::vector<NodeId> manager_nodes, const std::vector<NodeId>& realm_nodes,
                 NocFlowConfig flow)
    : NocFabric{ctx, std::move(name), num_nodes, std::move(node_map),
                std::move(subordinate_nodes), std::move(manager_nodes), realm_nodes, flow,
                /*deferred_credits=*/false,
                LinkPlan{2U * num_nodes, link_num_vcs(RoutingPolicy::kXY)}} {
    // Link i leaves node i toward node i+1.
    std::vector<NocLink*> req;
    std::vector<NocLink*> rsp;
    req.reserve(num_nodes);
    rsp.reserve(num_nodes);
    for (NodeId i = 0; i < num_nodes; ++i) {
        req.push_back(&add_link(ctx, ".req" + std::to_string(i)));
        rsp.push_back(&add_link(ctx, ".rsp" + std::to_string(i)));
    }
    build_egress(ctx);
    for (NodeId i = 0; i < num_nodes; ++i) {
        const NodeId prev = static_cast<NodeId>((i + num_nodes - 1) % num_nodes);
        add_router(std::make_unique<NocNode>(ctx, this->name() + ".node" + std::to_string(i),
                                             i, *this, *req[prev], *req[i], *rsp[prev],
                                             *rsp[i]));
    }
}

} // namespace realm::noc
