/// \file
/// \brief Ring NoC assembly: nodes, ring links, and per-node egress muxes.
///
/// The "more scalable network-on-chip" integration of Figure 1b: nodes
/// named in `manager_nodes` host one AXI manager each; nodes named in
/// `subordinate_nodes` host a subordinate, reached through per-manager
/// egress channels and an `ic::AxiMux` (which provides the burst-granular W
/// ordering a real NI needs). REALM units drop in front of any manager port unchanged —
/// regulation is interconnect-agnostic, which this module exists to prove.
///
/// Flow control (see credit.hpp): per-source staging is sized by the
/// end-to-end credit pool and its occupancy is *enforced* — the injecting
/// NI only sends while it holds credits, returned as the egress mux drains
/// the staging (after `credit_return_delay` cycles on the response network
/// when configured). Without the credit bound, the mux's per-granted-burst
/// W-channel reservation plus a filling staging lane would be a protocol
/// deadlock; credits make the bound structural instead of provisioned.
#pragma once

#include "axi/channel.hpp"
#include "ic/addr_map.hpp"
#include "ic/mux.hpp"
#include "noc/credit.hpp"
#include "noc/node.hpp"

#include "sim/context.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace realm::noc {

class NocRing {
public:
    /// \param node_map          decodes addresses to node ids.
    /// \param subordinate_nodes nodes hosting a local subordinate, and
    /// \param manager_nodes     nodes hosting a local manager, each listed
    ///        once (asserted by the `CreditBook`).
    /// \param flow              transport model and its knobs.
    NocRing(sim::SimContext& ctx, std::string name, NodeId num_nodes,
            ic::AddrMap node_map, std::vector<NodeId> subordinate_nodes,
            std::vector<NodeId> manager_nodes, NocFlowConfig flow = {});

    NocRing(const NocRing&) = delete;
    NocRing& operator=(const NocRing&) = delete;

    /// Channel the manager at `node` drives (requests in, responses out);
    /// asserts that `node` hosts a manager.
    [[nodiscard]] axi::AxiChannel& manager_port(NodeId node);
    /// Channel to attach a subordinate model at `node`.
    [[nodiscard]] axi::AxiChannel& subordinate_port(NodeId node);

    [[nodiscard]] NocNode& node(NodeId i) { return *nodes_.at(i); }
    [[nodiscard]] NodeId num_nodes() const noexcept {
        return static_cast<NodeId>(nodes_.size());
    }
    /// The ring is not spatially sharded: one lane serializes every hop, so
    /// all nodes stay on shard 0 (interface parity with `NocMesh`).
    [[nodiscard]] unsigned shard_of_node(NodeId) const noexcept { return 0; }
    [[nodiscard]] const NocFlowConfig& flow() const noexcept { return flow_; }
    /// End-to-end credit book.
    [[nodiscard]] const CreditBook* credit_book() const noexcept {
        return book_.get();
    }

    /// Aggregate ring statistics (hops forwarded across all nodes).
    [[nodiscard]] std::uint64_t total_forwarded() const noexcept;
    /// Aggregate head-of-line stall cycles across all nodes.
    [[nodiscard]] std::uint64_t total_ring_stalls() const noexcept;
    /// Aggregate W-channel reservation stalls across the subordinate-side
    /// egress muxes (the DoS exposure metric, cf. `AxiXbar::w_stall_cycles`).
    [[nodiscard]] std::uint64_t total_mux_w_stalls() const noexcept;

    /// Asserts every flow-control invariant of the fabric: credit
    /// conservation on every pool, staged NI flits within the end-to-end
    /// pool, and every link VC within `vc_depth`. Pushes and pool
    /// transitions already assert these inline; tests call this every
    /// cycle to pin the whole-fabric picture.
    void check_flow_invariants() const;

private:
    NocFlowConfig flow_;
    std::unique_ptr<CreditBook> book_;
    /// Per manager slot (see `CreditBook::manager_slot`).
    std::vector<std::unique_ptr<axi::AxiChannel>> mgr_ports_;
    std::vector<std::unique_ptr<NocLink>> req_links_;
    std::vector<std::unique_ptr<NocLink>> rsp_links_;
    /// Per subordinate slot (see `CreditBook::subordinate_slot`):
    /// egress_[slot][manager slot], the subordinate port and its mux.
    std::vector<std::vector<std::unique_ptr<axi::AxiChannel>>> egress_;
    std::vector<std::unique_ptr<axi::AxiChannel>> sub_ports_;
    std::vector<std::unique_ptr<ic::AxiMux>> muxes_;
    std::vector<std::unique_ptr<NocNode>> nodes_;
};

} // namespace realm::noc
