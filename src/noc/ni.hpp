/// \file
/// \brief Network-interface bookkeeping shared by every NoC router.
///
/// The ring node and the mesh router differ in how packets *move* (one lane
/// around a circle vs. policy-routed 2D hops), but their AXI network
/// interfaces are identical: requests are packetized with an AW-before-data
/// lane discipline and AXI same-ID ordering, ejected requests land in
/// per-source egress staging in front of an `ic::AxiMux`, and responses are
/// injected round-robin over the sources waiting at the local subordinate.
/// `NocNi` owns exactly that state so both fabrics share one flow-control
/// implementation (and one set of bugs).
///
/// The NI enforces end-to-end credits: a request worm is injected only
/// while the source holds credits from the target subordinate's pool
/// (returned when the target's staging drains into the egress mux), so
/// request ejection can never backpressure the network — asserted, not
/// provisioned. Responses draw on a separate pool per (manager,
/// subordinate) pair, bounding in-flight responses toward any manager;
/// those credits return when the response ejects into the local manager
/// channel. Every pool returns credits under the policy the fabric gave it
/// (see `CreditBook`): with `credit_return_delay > 0` a return additionally
/// rides the response network for that many cycles before the injector
/// sees it.
///
/// **Ordering under multi-path routing.** Adaptive and randomized mesh
/// policies (O1TURN, west-first) can deliver two worms of one (src, dest)
/// pair out of injection order. The NI therefore stamps every worm with a
/// per-(pair, network) sequence number at injection, and the ejecting side
/// holds out-of-order arrivals in a reorder stash until the gap closes —
/// delivery into the egress lanes / the local manager is always in
/// injection order, which preserves the AW-before-data lane pairing and
/// the AXI same-ID rules under every routing policy. The stash is bounded
/// by the end-to-end credit pool (a stashed worm still holds its credits),
/// so it adds no unbounded buffer; under single-path policies (XY, YX, the
/// ring) arrivals are always in order and the stash stays empty.
///
/// **Hot-path layout.** Every per-cycle table is contiguous and sized by
/// the pairs that can carry traffic, through the credit book's two slot
/// maps: a manager NI keeps one request sequence counter and one response
/// reorder state per subordinate slot, and a subordinate NI keeps one
/// response sequence counter and one request reorder state per manager
/// slot; every other table is empty. Same-ID tracking is scanned linearly
/// over a handful of live entries. Per-fabric pair state is therefore
/// subordinates x managers, however many pass-through nodes the fabric
/// has, and there is no node-based container on the path the 16x16/32x32
/// fabrics tick millions of times.
#pragma once

#include "axi/channel.hpp"
#include "ic/addr_map.hpp"
#include "noc/arena.hpp"
#include "noc/credit.hpp"
#include "noc/packet.hpp"
#include "noc/routing.hpp"

#include "sim/context.hpp"
#include "sim/ring.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace realm::noc {

class NocNi {
public:
    /// \param ctx        Simulation clock (credit-return maturation).
    /// \param self       Node this NI serves.
    /// \param book       End-to-end credit book of the fabric (required);
    ///                   its slot maps size the pair tables.
    /// \param routing    Routing policy of the fabric — the NI assigns each
    ///                   worm's route class / VC at injection (kXY for the
    ///                   ring and every other single-path fabric).
    NocNi(const sim::SimContext& ctx, std::string owner, NodeId self,
          const NocFlowConfig& fc, CreditBook* book,
          RoutingPolicy routing = RoutingPolicy::kXY);

    /// \name Ejection (packets whose dest is the local node)
    ///@{
    /// Accepts a request packet: in-order packets are delivered into the
    /// source manager's egress lane (`egress[manager slot]`) toward the
    /// local subordinate's mux (space guaranteed — the injector reserved it
    /// through the credit pool, asserted); out-of-order packets are stashed
    /// until the gap closes.
    /// Always succeeds (returns true) so the router can retire the link
    /// head unconditionally.
    bool try_eject_request(const NocPacket& pkt,
                           const std::vector<axi::AxiChannel*>& egress);
    /// Accepts a response packet: in-order packets are delivered to the
    /// local manager (retiring the same-ID bookkeeping on B / last R and
    /// returning the response's end-to-end credits); out-of-order packets
    /// are stashed. Returns false only when the in-order head cannot be
    /// delivered this cycle (manager channel backpressure).
    bool try_eject_response(const NocPacket& pkt, axi::AxiChannel* local_mgr);
    /// Retries delivering in-order stashed responses. Required every tick:
    /// after a drain stops on manager backpressure, the stash head *is*
    /// the expected packet, and no future arrival will carry that sequence
    /// number again — delivery must be retried as the manager drains, not
    /// on arrival. (Requests never need this: their delivery cannot
    /// backpressure, so a request drain never stops early.)
    void drain_response_stash(axi::AxiChannel* local_mgr);
    /// True while any response sits in the reorder stash — the owning
    /// router must stay awake (stash progress rides on the local manager
    /// draining, which raises no wake). O(1): tracked, not scanned.
    [[nodiscard]] bool has_stashed_responses() const noexcept {
        return !rsp_stash_srcs_.empty();
    }
    ///@}

    /// \name Injection (local manager / subordinate into the network)
    ///@{
    /// Injects at most one request packet from the local manager. `route`
    /// maps (destination node, worm flits, route class/VC) to the outgoing
    /// link able to accept that worm this cycle, or nullptr on backpressure
    /// (the flit is then held and retried, preserving the lane order). AW
    /// travels before its data; W continuation beats take priority over new
    /// reads; an AW or AR whose ID has in-flight transactions toward a
    /// *different* node stalls until they retire (the crossbar's same-ID
    /// rule, `ic::AxiXbar`). Every packet additionally needs end-to-end
    /// credits from the target subordinate's pool; a credit-starved head
    /// holds its lane exactly like link backpressure.
    template <typename RouteFn>
    bool inject_requests(axi::AxiChannel& mgr, const ic::AddrMap& map,
                         RouteFn&& route) {
        const std::uint32_t data_flits = fc_.packet_flits(/*data_carrying=*/true);
        if (mgr.aw.can_pop()) {
            const axi::AwFlit& head = mgr.aw.front();
            const auto dest_opt = map.decode(head.addr);
            REALM_EXPECTS(dest_opt.has_value(), owner_ + ": unmapped NoC address");
            const auto dest = static_cast<NodeId>(*dest_opt);
            const InFlight* fl = find_in_flight(w_in_flight_, head.id);
            const bool ordering_ok =
                fl == nullptr || fl->count == 0 || fl->dest == dest;
            if (ordering_ok) {
                if (NocLink* out = try_route(dest, 1, /*request_net=*/true, route)) {
                    axi::AwFlit aw = mgr.aw.pop();
                    InFlight& slot = in_flight_slot(w_in_flight_, aw.id);
                    slot.dest = dest;
                    ++slot.count;
                    w_routes_.push_back(WRoute{dest, aw.beats()});
                    pair_pool(dest, /*request_net=*/true).take(1);
                    out->push(make_packet(dest, 1, /*request_net=*/true, aw));
                    return true;
                }
                return false; // hold the AW; W/AR behind it wait their turn
            }
        }
        if (!w_routes_.empty() && mgr.w.can_pop()) {
            WRoute& wr = w_routes_.front();
            const NodeId dest = wr.dest;
            if (NocLink* out =
                    try_route(dest, data_flits, /*request_net=*/true, route)) {
                axi::WFlit w = mgr.w.pop();
                pair_pool(dest, /*request_net=*/true).take(data_flits);
                out->push(make_packet(dest, data_flits, /*request_net=*/true, w));
                if (--wr.beats_left == 0) {
                    REALM_ENSURES(w.last, owner_ + ": W burst ended without WLAST");
                    w_routes_.pop_front();
                }
                return true;
            }
            return false;
        }
        if (mgr.ar.can_pop()) {
            const axi::ArFlit& head = mgr.ar.front();
            const auto dest_opt = map.decode(head.addr);
            REALM_EXPECTS(dest_opt.has_value(), owner_ + ": unmapped NoC address");
            const auto dest = static_cast<NodeId>(*dest_opt);
            const InFlight* fl = find_in_flight(r_in_flight_, head.id);
            const bool ordering_ok =
                fl == nullptr || fl->count == 0 || fl->dest == dest;
            if (!ordering_ok) { return false; }
            if (NocLink* out = try_route(dest, 1, /*request_net=*/true, route)) {
                axi::ArFlit ar = mgr.ar.pop();
                InFlight& slot = in_flight_slot(r_in_flight_, ar.id);
                slot.dest = dest;
                ++slot.count;
                pair_pool(dest, /*request_net=*/true).take(1);
                out->push(make_packet(dest, 1, /*request_net=*/true, ar));
                return true;
            }
        }
        return false;
    }

    /// Injects at most one response packet from the local subordinate,
    /// round-robin over the managers whose responses wait in their egress
    /// lanes (`egress[manager slot]`), in manager slot order. `route` maps
    /// (response destination, worm flits, route class/VC) to the outgoing
    /// link, or nullptr on backpressure — a blocked or credit-starved
    /// manager does not stop a routable one.
    template <typename RouteFn>
    bool inject_responses(const std::vector<axi::AxiChannel*>& egress,
                          RouteFn&& route) {
        const std::uint32_t data_flits = fc_.packet_flits(/*data_carrying=*/true);
        const auto m = static_cast<std::uint32_t>(egress.size());
        for (std::uint32_t i = 0; i < m; ++i) {
            const std::uint32_t slot = (rsp_next_ + i) % m;
            axi::AxiChannel* ch = egress[slot];
            const NodeId dest = book_->managers()[slot];
            if (ch->b.can_pop()) {
                if (NocLink* out =
                        try_route(dest, 1, /*request_net=*/false, route)) {
                    pair_pool(dest, /*request_net=*/false).take(1);
                    out->push(make_packet(dest, 1, /*request_net=*/false,
                                          ch->b.pop()));
                    rsp_next_ = (slot + 1) % m;
                    return true;
                }
                continue;
            }
            if (ch->r.can_pop()) {
                if (NocLink* out = try_route(dest, data_flits,
                                             /*request_net=*/false, route)) {
                    pair_pool(dest, /*request_net=*/false).take(data_flits);
                    out->push(make_packet(dest, data_flits, /*request_net=*/false,
                                          ch->r.pop()));
                    rsp_next_ = (slot + 1) % m;
                    return true;
                }
            }
        }
        return false;
    }
    ///@}

    [[nodiscard]] const NocFlowConfig& flow() const noexcept { return fc_; }
    [[nodiscard]] RoutingPolicy routing() const noexcept { return routing_; }

    /// \name Reorder-stash introspection (fabric invariant checkers)
    ///@{
    /// Flits stashed out of order for request packets from manager node
    /// `src` (0 under single-path policies, and away from a subordinate).
    [[nodiscard]] std::uint32_t stashed_request_flits(NodeId src) const {
        const NodeId slot = book_->manager_slot(src);
        return slot < req_reorder_.size() ? stashed_flits(req_reorder_[slot]) : 0;
    }
    /// Flits stashed out of order for response packets from subordinate
    /// node `src` (0 away from a manager).
    [[nodiscard]] std::uint32_t stashed_response_flits(NodeId src) const {
        const NodeId slot = book_->subordinate_slot(src);
        return slot < rsp_reorder_.size() ? stashed_flits(rsp_reorder_[slot]) : 0;
    }
    ///@}

private:
    /// Per-(pair, network) reorder state at the ejecting side: the next
    /// expected sequence number and the stash of early arrivals. The stash
    /// is a small unsorted vector — only multi-path policies ever populate
    /// it, delivery always looks up the exact `expected` number, and its
    /// size is bounded by the end-to-end credit pool.
    struct Reorder {
        std::uint16_t expected = 0;
        /// (seq, arena slot) pairs — the packets themselves live in the
        /// NI's `PacketArena`, so the per-pair vector stays tiny and all
        /// stashed payloads share one contiguous slab.
        std::vector<std::pair<std::uint16_t, PacketArena::Slot>> stash;

        [[nodiscard]] bool stash_insert(PacketArena& arena, std::uint16_t seq,
                                        const NocPacket& pkt) {
            for (const auto& [s, slot] : stash) {
                if (s == seq) { return false; }
            }
            stash.emplace_back(seq, arena.acquire(pkt));
            return true;
        }
        /// Removes and returns the entry for `seq`, if stashed.
        [[nodiscard]] bool stash_take(PacketArena& arena, std::uint16_t seq,
                                      NocPacket& out) {
            for (auto it = stash.begin(); it != stash.end(); ++it) {
                if (it->first == seq) {
                    out = std::move(arena[it->second]);
                    arena.release(it->second);
                    stash.erase(it);
                    return true;
                }
            }
            return false;
        }
    };

    /// Injection sequence counter of the (self, `dest`) pair: requests only
    /// leave a manager NI toward a subordinate (one counter per subordinate
    /// slot), responses only leave a subordinate NI toward a manager (one
    /// counter per manager slot).
    [[nodiscard]] std::uint16_t& next_seq(NodeId dest, bool request_net) {
        return request_net ? req_seq_[book_->subordinate_slot(dest)]
                           : rsp_seq_[book_->manager_slot(dest)];
    }
    /// End-to-end pool of the (self, `dest`) pair; asserts the pair has a
    /// manager and a subordinate end, which also bounds the `next_seq`
    /// index.
    [[nodiscard]] CreditPool& pair_pool(NodeId dest, bool request_net) {
        return request_net ? book_->req(dest, self_) : book_->rsp(dest, self_);
    }
    /// Reorder state for responses from subordinate node `src`.
    [[nodiscard]] Reorder& rsp_reorder(NodeId src) {
        const NodeId slot = book_->subordinate_slot(src);
        REALM_EXPECTS(slot < rsp_reorder_.size(),
                      owner_ + ": response from a node without a subordinate");
        return rsp_reorder_[slot];
    }

    template <typename Flit>
    [[nodiscard]] NocPacket make_packet(NodeId dest, std::uint32_t flits,
                                        bool request_net, Flit&& flit) {
        std::uint16_t& seq = next_seq(dest, request_net);
        NocPacket pkt;
        pkt.src = self_;
        pkt.dest = dest;
        pkt.flits = static_cast<std::uint8_t>(flits);
        pkt.seq = seq++;
        pkt.vc = route_class(routing_, self_, dest, pkt.seq);
        pkt.flit = std::forward<Flit>(flit);
        return pkt;
    }

    /// Credit gate + route lookup for one candidate worm. Matures pending
    /// credit returns first so a delayed return becomes visible the cycle
    /// it arrives.
    template <typename RouteFn>
    [[nodiscard]] NocLink* try_route(NodeId dest, std::uint32_t flits,
                                     bool request_net, RouteFn&& route) {
        CreditPool& p = pair_pool(dest, request_net);
        p.settle(ctx_->now());
        if (!p.can_take(flits)) { return nullptr; }
        const std::uint16_t seq = next_seq(dest, request_net);
        return route(dest, flits, route_class(routing_, self_, dest, seq));
    }

    /// Delivers consecutive stashed packets starting at `ro.expected`
    /// until the stash has a gap or `deliver` reports backpressure.
    template <typename Deliver>
    static void drain_stash(PacketArena& arena, Reorder& ro, Deliver&& deliver) {
        NocPacket pkt;
        while (ro.stash_take(arena, ro.expected, pkt)) {
            if (!deliver(pkt)) {
                // Put it back: delivery is retried next tick.
                ro.stash.emplace_back(ro.expected, arena.acquire(pkt));
                return;
            }
            ++ro.expected;
        }
    }

    /// Pushes one in-order request packet into its egress lane (space
    /// asserted — the injector held credits for it).
    void deliver_request(const NocPacket& pkt, axi::AxiChannel& ch);
    /// Delivers one in-order response packet to the local manager and
    /// returns its end-to-end credits; returns false on manager-channel
    /// backpressure.
    bool deliver_response(const NocPacket& pkt, axi::AxiChannel& mgr);

    /// Where the first response scan starts: the lowest manager slot above
    /// node 0, so the scans visit managers in the order a round-robin over
    /// every node, starting one past node 0, would.
    [[nodiscard]] std::uint32_t first_response_slot() const {
        const std::vector<NodeId>& mgrs = book_->managers();
        return !mgrs.empty() && mgrs.front() == 0 ? 1 : 0;
    }

    /// Keeps `rsp_stash_srcs_` (the sorted list of sources with stashed
    /// responses) in sync after a stash mutation for `src`.
    void update_rsp_stash_index(NodeId src);

    [[nodiscard]] std::uint32_t stashed_flits(const Reorder& ro) const {
        std::uint32_t total = 0;
        for (const auto& [seq, slot] : ro.stash) { total += arena_[slot].flits; }
        return total;
    }

    /// Same-ID ordering at the ingress (the crossbar's rule, `ic::AxiXbar`): a
    /// flat array scanned linearly — managers use a handful of distinct
    /// AXI IDs, and entries are recycled once their count drains.
    struct InFlight {
        axi::IdT id = 0;
        NodeId dest = 0;
        std::uint32_t count = 0;
    };
    [[nodiscard]] static const InFlight*
    find_in_flight(const std::vector<InFlight>& v, axi::IdT id) noexcept {
        for (const InFlight& fl : v) {
            if (fl.id == id) { return &fl; }
        }
        return nullptr;
    }
    [[nodiscard]] static InFlight& in_flight_slot(std::vector<InFlight>& v,
                                                  axi::IdT id) {
        for (InFlight& fl : v) {
            if (fl.id == id) { return fl; }
        }
        for (InFlight& fl : v) {
            if (fl.count == 0) {
                fl.id = id;
                fl.dest = 0;
                return fl;
            }
        }
        v.push_back(InFlight{id, 0, 0});
        return v.back();
    }
    [[nodiscard]] static InFlight* find_in_flight_mut(std::vector<InFlight>& v,
                                                      axi::IdT id) noexcept {
        for (InFlight& fl : v) {
            if (fl.id == id) { return &fl; }
        }
        return nullptr;
    }

    const sim::SimContext* ctx_;
    std::string owner_; ///< router name, for contract messages
    NocFlowConfig fc_;
    CreditBook* book_; ///< fabric-owned end-to-end pools
    RoutingPolicy routing_;
    NodeId self_;

    /// Ingress W routing: destination and beats still to send per accepted
    /// AW, in order. A flat ring allocates nothing until the first write,
    /// so a node without a manager holds no buffer for it.
    struct WRoute {
        NodeId dest = 0;
        std::uint32_t beats_left = 0;
    };
    sim::FlatRing<WRoute> w_routes_;
    std::vector<InFlight> w_in_flight_;
    std::vector<InFlight> r_in_flight_;
    /// Response injection round-robin: the manager slot the next scan
    /// starts at (see `first_response_slot`).
    std::uint32_t rsp_next_ = 0;
    /// Injection sequence counters: requests per target subordinate slot
    /// (manager NIs only, else empty); responses per destination manager
    /// slot (subordinate NIs only, else empty).
    std::vector<std::uint16_t> req_seq_;
    std::vector<std::uint16_t> rsp_seq_;
    /// Ejection reorder state: requests per source manager slot
    /// (subordinate NIs only, else empty); responses per source subordinate
    /// slot (manager NIs only, else empty).
    std::vector<Reorder> req_reorder_;
    std::vector<Reorder> rsp_reorder_;
    /// Slot pool for every stashed packet of this NI (per shard by
    /// construction: one NI is ticked by exactly one shard). Lazy — stays
    /// empty under single-path policies.
    PacketArena arena_;
    /// Sources with a non-empty response stash, kept sorted ascending —
    /// the per-tick stash drain touches only these (delivery order must be
    /// deterministic: ascending source node, as the ordered map used to
    /// iterate).
    std::vector<NodeId> rsp_stash_srcs_;
    /// The drain's copy of `rsp_stash_srcs_` (draining rewrites the index);
    /// a member so its capacity survives and the drain never allocates.
    std::vector<NodeId> rsp_stash_scan_;
};

} // namespace realm::noc
