/// \file
/// \brief Ring NoC: N nodes on two unidirectional rings, one per network.
///
/// The simplest fabric of Figure 1b's NoC integration: node i drives
/// request link i and response link i toward node i+1, and every hop takes
/// the one lane forward, so a ring is single-path and never reorders a
/// pair's stream. Endpoints, credit flow control and the router shell are
/// the shared `NocFabric` / `NocRouter` layer (see fabric.hpp); the ring
/// adds its 2 x N immediate links and its `NocNode`s. It is not spatially
/// sharded: one lane serializes every hop, so every node stays on shard 0.
#pragma once

#include "ic/addr_map.hpp"
#include "noc/credit.hpp"
#include "noc/fabric.hpp"

#include "sim/context.hpp"

#include <string>
#include <vector>

namespace realm::noc {

class NocRing final : public NocFabric {
public:
    /// \param node_map          decodes addresses to node ids.
    /// \param subordinate_nodes nodes hosting a local subordinate, and
    /// \param manager_nodes     nodes hosting a local manager, each listed
    ///        once (asserted by the `CreditBook`).
    /// \param realm_nodes       manager nodes with a REALM unit in front of
    ///        their port (see `NocFabric`).
    /// \param flow              transport model and its knobs.
    NocRing(sim::SimContext& ctx, std::string name, NodeId num_nodes,
            ic::AddrMap node_map, std::vector<NodeId> subordinate_nodes,
            std::vector<NodeId> manager_nodes, const std::vector<NodeId>& realm_nodes,
            NocFlowConfig flow = {});
};

} // namespace realm::noc
