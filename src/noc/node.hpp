/// \file
/// \brief One ring-NoC node: the ring's hop step on the shared router shell.
///
/// Rings are unidirectional with one-cycle hops, and forwarding has
/// priority over injection. A request worm only enters the ring once its
/// end-to-end credits reserved the target staging, so request ejection
/// never stalls the ring head. Everything else a node does — the NI, the
/// local manager and egress lanes, injection, statistics — is the
/// fabric-shared `NocRouter` (see fabric.hpp).
#pragma once

#include "noc/credit.hpp"
#include "noc/fabric.hpp"

#include "sim/context.hpp"

#include <string>

namespace realm::noc {

class NocNode final : public NocRouter {
public:
    /// \param node_id  position on the ring.
    /// \param req_in/out, rsp_in/out  ring links (owned by `fabric`).
    NocNode(sim::SimContext& ctx, std::string name, NodeId node_id, NocFabric& fabric,
            NocLink& req_in, NocLink& req_out, NocLink& rsp_in, NocLink& rsp_out);

    void tick() override;

private:
    void ring_hop(NocLink& in, NocLink& out, bool request_ring);

    NocLink* req_in_;
    NocLink* req_out_;
    NocLink* rsp_in_;
    NocLink* rsp_out_;
};

} // namespace realm::noc
