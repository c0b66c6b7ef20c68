/// \file
/// \brief The layer every packet NoC shares: the fabric's endpoints and
///        links (`NocFabric`) and the router shell around the NI
///        (`NocRouter`).
///
/// The "more scalable network-on-chip" integration of Figure 1b: nodes
/// named in `manager_nodes` host one AXI manager each, whose channel the
/// node's router terminates as a subordinate; nodes named in
/// `subordinate_nodes` host a subordinate, reached through one egress
/// staging lane per manager and an `ic::AxiMux` (which provides the
/// burst-granular W ordering a real NI needs). REALM units drop in front of
/// any manager port unchanged — regulation is interconnect-agnostic, which
/// the NoC fabrics exist to prove. A port named in `realm_nodes` is built
/// the way every fabric builds the channel behind a unit
/// (`rt::make_downstream_channel`: pass-through B/R), so the unit costs one
/// cycle here as on the crossbar; its unit must be registered after the
/// node's router. None of that depends on the topology,
/// so `NocFabric` builds and owns it once; a fabric adds only the links it
/// wires and a `NocRouter` subclass with its hop step.
///
/// Flow control (see credit.hpp): per-source staging is sized by the
/// end-to-end credit pool and its occupancy is *enforced* — the injecting
/// NI only sends while it holds credits, returned as the egress mux drains
/// the staging (after `credit_return_delay` cycles when configured).
/// Without the credit bound, the mux's per-granted-burst W-channel
/// reservation plus a filling staging lane would be a protocol deadlock;
/// credits make the bound structural instead of provisioned. The same
/// lanes carry responses back: a manager's NI reserves its responses from
/// the response pool before it asks (see `NocNi`), so a regulated
/// manager's lane never fills and holds the mux's one R/B output.
#pragma once

#include "axi/channel.hpp"
#include "ic/addr_map.hpp"
#include "ic/mux.hpp"
#include "noc/credit.hpp"
#include "noc/ni.hpp"
#include "noc/packet.hpp"
#include "noc/routing.hpp"

#include "sim/component.hpp"
#include "sim/context.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace realm::noc {

class NocRouter;

/// The links a fabric wires, declared before it builds the first one: how
/// many, and the VC count and mode every one of them shares.
struct LinkPlan {
    std::size_t count = 0;
    std::uint8_t num_vcs = 1;
    bool edge_registered = false;
};

/// One NoC: credit book, manager ports, per-subordinate egress lanes,
/// subordinate ports and muxes, links, and one router per node. A fabric
/// subclass builds, in this order (construction order fixes tick order):
/// the base (manager ports), its links (`add_link`), the egress lanes and
/// muxes (`build_egress`), then its routers in node order (`add_router`).
///
/// Links live in one block sized by the `LinkPlan`, so their addresses
/// never change, and their VC ring slots in a second, uninitialised one
/// that each link receives its span of (see `NocLink`): two allocations
/// per fabric, whatever its size.
class NocFabric {
public:
    virtual ~NocFabric() = default;
    NocFabric(const NocFabric&) = delete;
    NocFabric& operator=(const NocFabric&) = delete;

    /// Channel the manager at `node` drives (requests in, responses out);
    /// asserts that `node` hosts a manager.
    [[nodiscard]] axi::AxiChannel& manager_port(NodeId node);
    /// Channel to attach a subordinate model at `node`; asserts that
    /// `node` hosts a subordinate.
    [[nodiscard]] axi::AxiChannel& subordinate_port(NodeId node);

    [[nodiscard]] NodeId num_nodes() const noexcept { return book_->num_nodes(); }
    /// Spatial shard hosting node `n`'s tile; every component of a tile
    /// (router, mux, and the models attached to its ports) is built on it.
    /// A fabric that is not spatially sharded keeps every node on shard 0.
    [[nodiscard]] virtual unsigned shard_of_node(NodeId) const { return 0; }
    /// End-to-end credit book.
    [[nodiscard]] const CreditBook* credit_book() const noexcept { return book_.get(); }

    /// Hops forwarded across all routers.
    [[nodiscard]] std::uint64_t total_forwarded() const noexcept;
    /// W-channel reservation stalls across the subordinate-side egress
    /// muxes (the DoS exposure metric, cf. `AxiXbar::w_stall_cycles`).
    [[nodiscard]] std::uint64_t total_mux_w_stalls() const noexcept;
    /// Cycles the subordinate-side egress muxes held a response for a full
    /// manager lane (see `ic::AxiMux::rsp_hold_cycles`), summed.
    [[nodiscard]] std::uint64_t total_mux_rsp_holds() const noexcept;

    /// Asserts every flow-control invariant of the fabric: credit
    /// conservation on every pool, every link VC within `vc_depth`, staged
    /// NI flits (lanes plus request reorder stash) within the end-to-end
    /// pool, and stashed responses within their pool's in-flight credits
    /// plus the unreserved response flits still owed.
    /// Pushes and pool transitions already assert these inline; tests call
    /// this every cycle to pin the whole-fabric picture.
    void check_flow_invariants() const;

protected:
    /// Validates `flow`, builds the credit book and the manager ports.
    /// \param node_map          decodes addresses to node ids; one copy
    ///        serves every router.
    /// \param subordinate_nodes nodes hosting a local subordinate, and
    /// \param manager_nodes     nodes hosting a local manager, each listed
    ///        once (asserted by the `CreditBook`). Egress lanes, credit
    ///        pools and NI pair state exist only between the two sets.
    /// \param realm_nodes       manager nodes with a REALM unit in front of
    ///        their port, whose B/R channels pass through; asserts that each
    ///        hosts a manager.
    /// \param deferred_credits  stage every credit return for the
    ///        cycle-edge flush instead of releasing it inline (see
    ///        `CreditBook`).
    /// \param links             every link `add_link` will build.
    NocFabric(const sim::SimContext& ctx, std::string name, NodeId num_nodes,
              ic::AddrMap node_map,
              std::vector<NodeId> subordinate_nodes,
              std::vector<NodeId> manager_nodes, const std::vector<NodeId>& realm_nodes,
              const NocFlowConfig& flow, bool deferred_credits, const LinkPlan& links);

    /// Builds the next declared link, named `name() + tag`; asserts that
    /// the `LinkPlan` has one left.
    NocLink& add_link(const sim::SimContext& ctx, const std::string& tag);
    /// Builds every subordinate's egress lanes (with their credit-return
    /// hooks), subordinate port and mux, each mux on its node's shard.
    /// Asserts that every declared link was built.
    void build_egress(sim::SimContext& ctx);
    /// Keeps the router of the next node: routers are added in node order,
    /// each built on its node's shard.
    void add_router(std::unique_ptr<NocRouter> router);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
    friend class NocRouter;

    std::string name_;
    NocFlowConfig flow_;
    ic::AddrMap map_;
    std::unique_ptr<CreditBook> book_;
    /// Per manager slot (see `CreditBook::manager_slot`).
    std::vector<std::unique_ptr<axi::AxiChannel>> mgr_ports_;
    LinkPlan link_plan_;
    /// Every link's VC ring slots, link after link (declared before the
    /// links, so it outlives them).
    std::unique_ptr<NocLink::Slot[]> link_slots_;
    /// The link block: `link_plan_.count` entries, engaged in build order
    /// by `add_link` and never resized.
    std::vector<std::optional<NocLink>> links_;
    std::size_t links_built_ = 0;
    /// Per subordinate slot (see `CreditBook::subordinate_slot`):
    /// egress_[slot][manager slot], the subordinate port and its mux.
    std::vector<std::vector<std::unique_ptr<axi::AxiChannel>>> egress_;
    std::vector<std::unique_ptr<axi::AxiChannel>> sub_ports_;
    std::vector<std::unique_ptr<ic::AxiMux>> muxes_;
    /// Indexed by node id.
    std::vector<std::unique_ptr<NocRouter>> routers_;
};

/// The per-node shell every router shares: the AXI network interface
/// (`NocNi`), the local manager channel and the egress lanes toward the
/// local subordinate's mux, both injection paths, and the statistics. A
/// subclass adds its input/output links and the step that moves a packet
/// from an input link to an output link or into the NI, and ticks as:
/// `drain_response_stash()`, its hop step for the response then the
/// request network, `inject(route)`, then its idle check. Forwarding thus
/// has priority over injection on every fabric.
class NocRouter : public sim::Component {
public:
    /// NI bookkeeping (reorder-stash introspection for invariant checks).
    [[nodiscard]] const NocNi& ni() const noexcept { return ni_; }
    [[nodiscard]] NodeId id() const noexcept { return id_; }

    /// \name Statistics
    ///@{
    [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }
    [[nodiscard]] std::uint64_t ejected() const noexcept { return ejected_; }
    [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
    /// Cycles an input head could not move (output busy or backpressured,
    /// or ejection blocked).
    [[nodiscard]] std::uint64_t stall_cycles() const noexcept { return stalls_; }
    ///@}

protected:
    /// Terminates `node`'s local manager channel and egress lanes in
    /// `fabric` (when the node hosts them) and claims their wake hooks.
    /// \param routing  the fabric's routing policy — the NI assigns each
    ///        worm's route class at injection (kXY on single-path fabrics).
    NocRouter(sim::SimContext& ctx, std::string name, NodeId node, NocFabric& fabric,
              RoutingPolicy routing = RoutingPolicy::kXY);

    /// Retries delivering in-order stashed responses to the local manager
    /// (see `NocNi::drain_response_stash`); first step of every tick.
    void drain_response_stash() { ni_.drain_response_stash(local_mgr_); }

    /// Hands a packet addressed to this node to the NI; true (and counted
    /// as ejected) when accepted, so the caller retires the link head.
    bool eject(const NocPacket& pkt, bool request_net) {
        const bool ok = request_net ? ni_.try_eject_request(pkt, egress_)
                                    : ni_.try_eject_response(pkt, local_mgr_);
        if (ok) { ++ejected_; }
        return ok;
    }

    /// Injects at most one response from the local subordinate, then at
    /// most one request from the local manager. `route(request_net, dest,
    /// flits, vc)` returns the output link able to take that worm this
    /// cycle, or nullptr on backpressure; `first_hop(dest, vc)` names the
    /// response output a worm waits for (see `NocNi::inject_responses`).
    template <typename RouteFn, typename FirstHopFn>
    void inject(RouteFn&& route, FirstHopFn&& first_hop) {
        if (!egress_.empty() &&
            ni_.inject_responses(
                egress_,
                [&](NodeId dest, std::uint32_t flits, std::uint8_t vc) {
                    return route(/*request_net=*/false, dest, flits, vc);
                },
                first_hop)) {
            ++injected_;
        }
        if (local_mgr_ != nullptr &&
            ni_.inject_requests(*local_mgr_, *map_, [&](NodeId dest, std::uint32_t flits,
                                                         std::uint8_t vc) {
                return route(/*request_net=*/true, dest, flits, vc);
            })) {
            ++injected_;
        }
    }

    /// Idle half of the conservative idle contract that the local ports
    /// own: no request waits at the local manager, no response in an
    /// egress lane, and no response in the reorder stash (which progresses
    /// as the local manager drains, raising no wake). Pending W routing,
    /// same-ID stalls and credit waits only progress while a flit is held
    /// somewhere the router drains from, so a subclass that also finds its
    /// input links empty may sleep.
    [[nodiscard]] bool local_ports_idle() const noexcept {
        if (local_mgr_ != nullptr && !local_mgr_->requests_empty()) { return false; }
        for (const axi::AxiChannel* ch : egress_) {
            if (!ch->responses_empty()) { return false; }
        }
        return !ni_.has_stashed_responses();
    }

    NodeId id_;
    std::uint64_t forwarded_ = 0;
    std::uint64_t stalls_ = 0;

private:
    const ic::AddrMap* map_;
    axi::AxiChannel* local_mgr_;
    /// Per manager slot; empty when the node hosts no subordinate.
    std::vector<axi::AxiChannel*> egress_;
    NocNi ni_;
    std::uint64_t injected_ = 0;
    std::uint64_t ejected_ = 0;
};

} // namespace realm::noc
