/// \file
/// \brief Network-interface bookkeeping shared by every NoC router.
///
/// The ring node and the mesh router differ in how packets *move* (one lane
/// around a circle vs. policy-routed 2D hops), but their AXI network
/// interfaces are identical: requests are packetized with an AW-before-data
/// lane discipline and AXI same-ID ordering, ejected requests land in
/// per-source egress staging in front of an `ic::AxiMux`, and responses are
/// injected round-robin over the (manager, channel) requesters waiting at
/// the local subordinate.
/// `NocNi` owns exactly that state so both fabrics share one flow-control
/// implementation (and one set of bugs).
///
/// The NI enforces end-to-end credits: a request worm is injected only
/// while the source holds credits from the target subordinate's pool
/// (returned when the target's staging drains into the egress mux), so
/// request ejection can never backpressure the network — asserted, not
/// provisioned. Responses draw on a separate pool per (manager,
/// subordinate) pair, and the *manager* NI reserves them before it asks:
/// an AR leaves only while the pool can take its whole response (beats x
/// `flits_per_packet`), an AW only while it can take its B's one flit, and
/// the credits return as each response is delivered into the local manager
/// channel. A read whose response exceeds the whole pool goes out
/// unreserved and returns nothing. So one NI takes and returns every
/// response pool, the subordinate NI injects responses without a credit
/// check, and a reserved manager never has more responses owed than its
/// egress lane holds: its lane cannot fill and hold the memory's single
/// R/B output for every other manager. Every pool returns credits under
/// the policy the fabric gave it (see `CreditBook`): with
/// `credit_return_delay > 0` a return additionally waits that many cycles
/// before the injector sees it.
///
/// **Response arbitration.** The subordinate NI injects at most one
/// response per cycle. B and R are separate requesters, as they are
/// separate channels on the crossbar: manager slot s's B is requester 2s
/// and its R requester 2s + 1, so a manager's R follows its own B instead
/// of waiting a round of other managers. Each output link keeps its own
/// round-robin pointer over the requesters; a worm's output is its first
/// permitted hop (one output on the ring). The first requester from an
/// output's pointer whose response waits for that output is the output's
/// nominee, and only the nominee may take it, so a requester waiting for a
/// busy output is served before any requester behind it in that output's
/// order. One pointer shared by every output would fall into step with the
/// worms' serialization and starve whichever requester waits when the
/// output frees.
///
/// **Ordering under multi-path routing.** Adaptive and randomized mesh
/// policies (O1TURN, west-first) can deliver two worms of one (src, dest)
/// pair out of injection order. The NI therefore stamps every worm with a
/// per-(pair, network, message class) sequence number at injection, and
/// the ejecting side holds out-of-order arrivals in that class's reorder
/// stash until the gap closes — delivery into the egress lanes / the local
/// manager is always in injection order within a class, which preserves
/// the AW-before-data lane pairing and the AXI same-ID rules under every
/// routing policy, while a read, on its own VC, passes its pair's writes
/// without waiting in the stash. The stash is bounded by the end-to-end
/// credit pool (a stashed worm still holds its credits) plus, for
/// responses, the unreserved response flits still owed, so it adds no
/// unbounded buffer; under single-path policies (XY, YX, the ring) each
/// class arrives in order and the stash stays empty.
///
/// **Hot-path layout.** Every per-cycle table is contiguous and sized by
/// the pairs that can carry traffic, through the credit book's two slot
/// maps: a manager NI keeps one request sequence counter and one response
/// reorder state per subordinate slot and message class, and one list of
/// outstanding reads per subordinate slot; a subordinate NI keeps one
/// response sequence counter and one request reorder state per manager
/// slot and message class; every other table is empty.
/// Same-ID tracking is scanned linearly over a handful of live entries. Per-fabric pair state is therefore
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
#include <array>
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
    ///                   worm's route class, and with its message class its
    ///                   VC, at injection (kXY for the ring and every other
    ///                   single-path fabric).
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
        return !rsp_stashed_.empty();
    }
    ///@}

    /// Outputs a subordinate NI arbitrates responses over: one per mesh
    /// direction (the ring uses output 0 only).
    static constexpr std::uint32_t kMaxOutputs = kMeshDirs;

    /// \name Injection (local manager / subordinate into the network)
    ///@{
    /// Injects at most one request packet from the local manager. `route`
    /// maps (destination node, worm flits, VC) to the outgoing
    /// link able to accept that worm this cycle, or nullptr on backpressure
    /// (the flit is then held and retried, preserving the lane order). AW
    /// travels before its data; W continuation beats take priority over new
    /// reads; an AW or AR whose ID has in-flight transactions toward a
    /// *different* node stalls until they retire (the crossbar's same-ID
    /// rule, `ic::AxiXbar`). Every packet additionally needs end-to-end
    /// credits from the target subordinate's pool; a credit-starved head
    /// holds its lane exactly like link backpressure. An AR also waits at
    /// the head until this manager's response pool for the target can take
    /// its whole response, unless that response exceeds the whole pool (it
    /// then goes out unreserved). An AW waits for its B's one flit; while it
    /// does, the W beats behind it, which belong to writes already sent and
    /// bring the credit back, still go.
    template <typename RouteFn>
    bool inject_requests(axi::AxiChannel& mgr, const ic::AddrMap& map,
                         RouteFn&& route) {
        const std::uint32_t data_flits = fc_.packet_flits(/*data_carrying=*/true);
        if (mgr.aw.can_pop()) {
            const axi::AwFlit& head = mgr.aw.front();
            const NodeId dest = decode(map, head.addr);
            const InFlight* fl = find_in_flight(w_in_flight_, head.id);
            const bool ordering_ok =
                fl == nullptr || fl->count == 0 || fl->dest == dest;
            if (ordering_ok && response_pool(dest).can_take(1)) {
                if (NocLink* out = try_route(dest, 1, kWriteClass, route)) {
                    axi::AwFlit aw = mgr.aw.pop();
                    InFlight& slot = in_flight_slot(w_in_flight_, aw.id);
                    slot.dest = dest;
                    ++slot.count;
                    w_routes_.push_back(WRoute{dest, aw.beats()});
                    book_->req(dest, self_).take(1);
                    book_->rsp(self_, dest).take(1);
                    out->push(make_packet(dest, 1, /*request_net=*/true, aw));
                    return true;
                }
                return false; // hold the AW; W/AR behind it wait their turn
            }
        }
        if (!w_routes_.empty() && mgr.w.can_pop()) {
            WRoute& wr = w_routes_.front();
            const NodeId dest = wr.dest;
            if (NocLink* out = try_route(dest, data_flits, kWriteClass, route)) {
                axi::WFlit w = mgr.w.pop();
                book_->req(dest, self_).take(data_flits);
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
            const NodeId dest = decode(map, head.addr);
            const InFlight* fl = find_in_flight(r_in_flight_, head.id);
            const bool ordering_ok =
                fl == nullptr || fl->count == 0 || fl->dest == dest;
            if (!ordering_ok) { return false; }
            const std::uint32_t rsp_flits = head.beats() * data_flits;
            const bool reserved = rsp_flits <= fc_.e2e_credits;
            if (reserved && !response_pool(dest).can_take(rsp_flits)) { return false; }
            if (NocLink* out = try_route(dest, 1, kReadClass, route)) {
                axi::ArFlit ar = mgr.ar.pop();
                InFlight& slot = in_flight_slot(r_in_flight_, ar.id);
                slot.dest = dest;
                ++slot.count;
                book_->req(dest, self_).take(1);
                const NodeId sub = book_->subordinate_slot(dest);
                if (reserved) {
                    book_->rsp(self_, dest).take(rsp_flits);
                } else {
                    unreserved_flits_[sub] += rsp_flits;
                }
                reads_[sub].push_back(ReadRecord{ar.id, reserved});
                out->push(make_packet(dest, 1, /*request_net=*/true, ar));
                return true;
            }
        }
        return false;
    }

    /// Injects at most one response packet from the local subordinate: the
    /// responses wait in the managers' egress lanes (`egress[manager
    /// slot]`), and the requester reserved them, so no credit is checked.
    /// `first_hop(dest, vc)` names a worm's output (its first permitted hop,
    /// below `kMaxOutputs`; 0 on the ring). Only each output's nominee may
    /// take it (see the file comment); the nominees are tried in requester
    /// order from one past the last requester served. `route` maps
    /// (response destination, worm flits, VC) to the outgoing link, or
    /// nullptr on backpressure — a blocked nominee does not stop another
    /// output's.
    template <typename RouteFn, typename FirstHopFn>
    bool inject_responses(const std::vector<axi::AxiChannel*>& egress,
                          RouteFn&& route, FirstHopFn&& first_hop) {
        // Requester q is manager slot q / 2's B (q even) or R (q odd); its
        // sequence counter is `rsp_seq_[q]`.
        const auto n = static_cast<std::uint32_t>(egress.size() * kMessageClasses);
        const std::vector<NodeId>& mgrs = book_->managers();
        const auto vc_of = [&](std::uint32_t q, NodeId dest) {
            return packet_vc(route_class(routing_, self_, dest, rsp_seq_[q]),
                             static_cast<std::uint8_t>(q % kMessageClasses));
        };
        // Each output's nominee: the waiting requester nearest its pointer.
        std::array<std::uint32_t, kMaxOutputs> nominee;
        nominee.fill(n);
        const auto nominate = [&](std::uint32_t q, NodeId dest) {
            const std::uint8_t out = first_hop(dest, vc_of(q, dest));
            REALM_EXPECTS(out < kMaxOutputs, owner_ + ": response output out of range");
            const auto dist = [&](std::uint32_t r) { return (r + n - rsp_out_next_[out]) % n; };
            if (nominee[out] == n || dist(q) < dist(nominee[out])) { nominee[out] = q; }
        };
        for (std::uint32_t slot = 0; slot < egress.size(); ++slot) {
            const axi::AxiChannel* ch = egress[slot];
            if (ch->b.can_pop()) { nominate(slot * kMessageClasses + kWriteClass, mgrs[slot]); }
            if (ch->r.can_pop()) { nominate(slot * kMessageClasses + kReadClass, mgrs[slot]); }
        }
        // Try the nominees in requester order from the scan pointer.
        const auto key = [&](std::uint32_t out) { return (nominee[out] + n - rsp_next_) % n; };
        const std::uint32_t data_flits = fc_.packet_flits(/*data_carrying=*/true);
        for (;;) {
            std::uint32_t out = kMaxOutputs;
            for (std::uint32_t o = 0; o < kMaxOutputs; ++o) {
                if (nominee[o] != n && (out == kMaxOutputs || key(o) < key(out))) { out = o; }
            }
            if (out == kMaxOutputs) { return false; }
            const std::uint32_t q = nominee[out];
            nominee[out] = n;
            axi::AxiChannel* ch = egress[q / kMessageClasses];
            const NodeId dest = mgrs[q / kMessageClasses];
            const bool b = q % kMessageClasses == kWriteClass;
            const std::uint32_t flits = b ? 1 : data_flits;
            NocLink* link = route(dest, flits, vc_of(q, dest));
            if (link == nullptr) { continue; }
            link->push(b ? make_packet(dest, flits, /*request_net=*/false, ch->b.pop())
                         : make_packet(dest, flits, /*request_net=*/false, ch->r.pop()));
            rsp_out_next_[out] = (q + 1) % n;
            rsp_next_ = (q + 1) % n;
            return true;
        }
    }
    ///@}

    [[nodiscard]] const NocFlowConfig& flow() const noexcept { return fc_; }
    [[nodiscard]] RoutingPolicy routing() const noexcept { return routing_; }

    /// \name Reorder-stash introspection (fabric invariant checkers)
    ///@{
    /// Flits stashed out of order for request packets from manager node
    /// `src` (0 under single-path policies, and away from a subordinate).
    [[nodiscard]] std::uint32_t stashed_request_flits(NodeId src) const {
        return stashed_flits(req_reorder_, book_->manager_slot(src));
    }
    /// Flits stashed out of order for response packets from subordinate
    /// node `src` (0 away from a manager).
    [[nodiscard]] std::uint32_t stashed_response_flits(NodeId src) const {
        return stashed_flits(rsp_reorder_, book_->subordinate_slot(src));
    }
    /// Response flits subordinate node `src` still owes this manager for
    /// reads that went out unreserved (0 away from a manager). These hold
    /// no credit, so the stash bound counts them separately.
    [[nodiscard]] std::uint32_t unreserved_response_flits(NodeId src) const {
        const NodeId slot = book_->subordinate_slot(src);
        return slot < unreserved_flits_.size() ? unreserved_flits_[slot] : 0;
    }
    ///@}

private:
    /// Per-(pair, network, class) reorder state at the ejecting side: the next
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

    /// Injection sequence counter of the (self, `dest`) pair's message
    /// class `cls`: requests only leave a manager NI toward a subordinate
    /// (counters per subordinate slot), responses only leave a subordinate
    /// NI toward a manager (counters per manager slot).
    [[nodiscard]] std::uint16_t& next_seq(NodeId dest, bool request_net, std::uint8_t cls) {
        const NodeId slot =
            request_net ? book_->subordinate_slot(dest) : book_->manager_slot(dest);
        return (request_net ? req_seq_ : rsp_seq_)[slot * kMessageClasses + cls];
    }
    /// Subordinate node serving `addr`.
    [[nodiscard]] NodeId decode(const ic::AddrMap& map, axi::Addr addr) const {
        const auto dest = map.decode(addr);
        REALM_EXPECTS(dest.has_value(), owner_ + ": unmapped NoC address");
        return static_cast<NodeId>(*dest);
    }
    /// This manager's response pool for subordinate node `dest`, with its
    /// pending returns matured (a delayed return is usable the cycle it
    /// arrives). Asserts the pair has a manager and a subordinate end.
    [[nodiscard]] CreditPool& response_pool(NodeId dest) {
        CreditPool& p = book_->rsp(self_, dest);
        p.settle(ctx_->now());
        return p;
    }
    /// Index into `rsp_reorder_` of class `cls` responses from subordinate
    /// node `src`.
    [[nodiscard]] std::uint32_t rsp_reorder_index(NodeId src, std::uint8_t cls) const {
        const std::uint32_t i = book_->subordinate_slot(src) * kMessageClasses + cls;
        REALM_EXPECTS(i < rsp_reorder_.size(),
                      owner_ + ": response from a node without a subordinate");
        return i;
    }

    template <typename Flit>
    [[nodiscard]] NocPacket make_packet(NodeId dest, std::uint32_t flits,
                                        bool request_net, Flit&& flit) {
        NocPacket pkt;
        pkt.src = self_;
        pkt.dest = dest;
        pkt.flits = static_cast<std::uint8_t>(flits);
        pkt.flit = std::forward<Flit>(flit);
        const std::uint8_t cls = pkt.message_class();
        pkt.seq = next_seq(dest, request_net, cls)++;
        pkt.vc = packet_vc(route_class(routing_, self_, dest, pkt.seq), cls);
        return pkt;
    }

    /// Request credit gate + route lookup for one candidate worm of message
    /// class `cls` toward subordinate node `dest`. Matures pending credit
    /// returns first so a delayed return becomes visible the cycle it
    /// arrives.
    template <typename RouteFn>
    [[nodiscard]] NocLink* try_route(NodeId dest, std::uint32_t flits, std::uint8_t cls,
                                     RouteFn&& route) {
        CreditPool& p = book_->req(dest, self_);
        p.settle(ctx_->now());
        if (!p.can_take(flits)) { return nullptr; }
        const std::uint16_t seq = next_seq(dest, /*request_net=*/true, cls);
        return route(dest, flits, packet_vc(route_class(routing_, self_, dest, seq), cls));
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
    /// returns its end-to-end credits when its request reserved them;
    /// returns false on manager-channel backpressure.
    bool deliver_response(const NocPacket& pkt, axi::AxiChannel& mgr);

    /// Where the first response scan starts: the lowest manager slot above
    /// node 0, so the scans visit managers in the order a round-robin over
    /// every node, starting one past node 0, would.
    [[nodiscard]] std::uint32_t first_response_slot() const {
        const std::vector<NodeId>& mgrs = book_->managers();
        return !mgrs.empty() && mgrs.front() == 0 ? 1 : 0;
    }

    /// Keeps `rsp_stashed_` (the sorted list of response reorder states
    /// with a stash) in sync after a stash mutation of `rsp_reorder_[i]`.
    void update_rsp_stash_index(std::uint32_t i);

    /// Flits stashed in every class of pair slot `slot` of `reorder` (0 for
    /// a slot the table does not hold).
    [[nodiscard]] std::uint32_t stashed_flits(const std::vector<Reorder>& reorder,
                                              NodeId slot) const {
        std::uint32_t total = 0;
        for (std::uint32_t i = slot * kMessageClasses;
             i < reorder.size() && i < (slot + 1U) * kMessageClasses; ++i) {
            for (const auto& [seq, s] : reorder[i].stash) { total += arena_[s].flits; }
        }
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
    /// Response arbitration: where the nominees' scan starts, and per
    /// output the requester its next nominee search starts at; both one
    /// past the last requester served there (initially the B requester of
    /// `first_response_slot`).
    std::uint32_t rsp_next_ = 0;
    std::array<std::uint32_t, kMaxOutputs> rsp_out_next_{};
    /// Outstanding reads per subordinate slot (manager NIs only, else
    /// empty), in issue order: whether each reserved its response. A
    /// response retires the oldest read of its ID.
    struct ReadRecord {
        axi::IdT id = 0;
        bool reserved = false;
    };
    std::vector<std::vector<ReadRecord>> reads_;
    /// Response flits owed for unreserved reads, per subordinate slot.
    std::vector<std::uint32_t> unreserved_flits_;
    /// Injection sequence counters, at `slot * kMessageClasses + class`:
    /// requests per target subordinate slot (manager NIs only, else empty);
    /// responses per destination manager slot (subordinate NIs only, else
    /// empty), which is also the response requester's index.
    std::vector<std::uint16_t> req_seq_;
    std::vector<std::uint16_t> rsp_seq_;
    /// Ejection reorder state, at `slot * kMessageClasses + class`:
    /// requests per source manager slot (subordinate NIs only, else empty);
    /// responses per source subordinate slot (manager NIs only, else empty).
    std::vector<Reorder> req_reorder_;
    std::vector<Reorder> rsp_reorder_;
    /// Slot pool for every stashed packet of this NI (per shard by
    /// construction: one NI is ticked by exactly one shard). Lazy — stays
    /// empty under single-path policies.
    PacketArena arena_;
    /// Indexes into `rsp_reorder_` with a non-empty stash, kept sorted
    /// ascending — the per-tick stash drain touches only these, in a
    /// deterministic order (subordinate slot, then class).
    std::vector<std::uint32_t> rsp_stashed_;
    /// The drain's copy of `rsp_stashed_` (draining rewrites the index); a
    /// member so its capacity survives and the drain never allocates.
    std::vector<std::uint32_t> rsp_stash_scan_;
};

} // namespace realm::noc
