/// \file
/// \brief One ring-NoC node: router + AXI network interface unit.
///
/// Each node can host one local manager (whose channel the node terminates
/// as a subordinate) and one local subordinate (reached through per-manager
/// egress channels and an `ic::AxiMux`, which enforces the usual
/// burst-granular W ordering). Rings are unidirectional with one-cycle
/// hops; forwarding has priority over injection. A request worm only
/// enters the ring once its end-to-end credits reserved the target
/// staging, so request ejection never stalls the ring head. The
/// NI bookkeeping (lane discipline, same-ID ordering, response
/// round-robin, credit accounting) lives in the fabric-shared `NocNi`.
#pragma once

#include "axi/channel.hpp"
#include "ic/addr_map.hpp"
#include "noc/credit.hpp"
#include "noc/ni.hpp"
#include "noc/packet.hpp"

#include "sim/component.hpp"

#include <cstdint>
#include <vector>

namespace realm::noc {

class NocNode : public sim::Component {
public:
    /// \param node_id        position on the ring.
    /// \param map            node-level address map (addr -> node id).
    /// \param local_mgr      channel driven by the local manager (nullptr if
    ///                       the node hosts none).
    /// \param egress         per-manager channels toward the local
    ///                       subordinate's mux, in manager slot order
    ///                       (empty if none).
    /// \param req_in/out, rsp_in/out  ring links (owned by `NocRing`).
    /// \param fc             fabric flow-control configuration.
    /// \param book           end-to-end credit book (owned by `NocRing`).
    NocNode(sim::SimContext& ctx, std::string name, NodeId node_id,
            ic::AddrMap map, axi::AxiChannel* local_mgr,
            std::vector<axi::AxiChannel*> egress,
            NocLink& req_in, NocLink& req_out, NocLink& rsp_in, NocLink& rsp_out,
            const NocFlowConfig& fc, CreditBook* book);

    void reset() override;
    void tick() override;

    /// NI bookkeeping (reorder-stash introspection for invariant checks).
    [[nodiscard]] const NocNi& ni() const noexcept { return ni_; }

    /// \name Statistics
    ///@{
    [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }
    [[nodiscard]] std::uint64_t ejected() const noexcept { return ejected_; }
    [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
    [[nodiscard]] std::uint64_t ring_stall_cycles() const noexcept { return ring_stalls_; }
    ///@}

private:
    void ring_hop(NocLink& in, NocLink& out, bool request_ring);
    void inject_requests();
    void inject_responses();
    void update_activity();

    NodeId id_;
    ic::AddrMap map_;
    axi::AxiChannel* local_mgr_;
    std::vector<axi::AxiChannel*> egress_;
    NocLink* req_in_;
    NocLink* req_out_;
    NocLink* rsp_in_;
    NocLink* rsp_out_;

    NocNi ni_;

    std::uint64_t injected_ = 0;
    std::uint64_t ejected_ = 0;
    std::uint64_t forwarded_ = 0;
    std::uint64_t ring_stalls_ = 0;
};

} // namespace realm::noc
