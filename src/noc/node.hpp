/// \file
/// \brief One ring-NoC node: the ring's hop step on the shared router shell.
///
/// Rings are unidirectional with one-cycle hops, and forwarding has
/// priority over injection. Each ring link carries one VC per message
/// class (`link_num_vcs(kXY)`), so a read never queues behind a write; a
/// node moves at most one packet per network per cycle, the first movable
/// VC head in a rotating per-input order, as a mesh input port does. A
/// request worm only enters the ring once its end-to-end credits reserved
/// the target staging, so request ejection never stalls the ring head. Everything else a node does — the NI, the
/// local manager and egress lanes, injection, statistics — is the
/// fabric-shared `NocRouter` (see fabric.hpp).
#pragma once

#include "noc/credit.hpp"
#include "noc/fabric.hpp"

#include "sim/context.hpp"

#include <cstdint>
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
    /// Moves at most one packet from `in`: ejects it here or forwards it
    /// onto `out`. `vc_rr` is the input's VC priority, rotated past the VC
    /// that moved.
    void ring_hop(NocLink& in, NocLink& out, bool request_ring, std::uint8_t& vc_rr);

    NocLink* req_in_;
    NocLink* req_out_;
    NocLink* rsp_in_;
    NocLink* rsp_out_;
    std::uint8_t req_vc_rr_ = 0;
    std::uint8_t rsp_vc_rr_ = 0;
};

} // namespace realm::noc
