/// \file
/// \brief Credit-based flow control for the NoC transport layer: wormhole
///        flit links with per-VC credits, and end-to-end credit pools
///        between injecting and ejecting network interfaces.
///
/// The credited transport *enforces* every buffer bound (the legacy
/// provisioned transport and its assumed 1024-flit staging are gone — the
/// credited numbers are the tracked baseline):
///
///  - **Wormhole worms.** A data-carrying packet (W / R beat) serializes
///    into `flits_per_packet` flits (header + payload sized from the AXI
///    beat width); address/response packets (AW / AR / B) are single-flit
///    headers. A link transmits one flit per cycle, so a worm occupies its
///    link for `flits` cycles — the head-of-line blocking the AXI-REALM RTL
///    work measures on real interconnects, now visible in the DoS matrix.
///  - **Per-VC link credits.** Each link buffers at most `vc_depth` flits
///    per virtual channel at the receiver; `NocLink` asserts the bound on
///    every push. The request and response networks are disjoint physical
///    links, and each carries one VC per route class and message class
///    (see noc/routing.hpp): two, reads and writes, on the ring and every
///    mesh policy but O1TURN, which rides four.
///  - **End-to-end credits.** An injecting NI may only send a request worm
///    toward subordinate node D while it holds `flits` credits from D's
///    pool; credits return when the target NI's staging drains into the
///    egress mux. Ejection therefore *never* backpressures the network
///    (asserted). Responses use a separate pool per (manager, subordinate)
///    pair, which the manager's NI takes before it asks (a read's whole
///    response, a write's B) and returns as it delivers each response, so
///    the subordinate's NI injects responses without a credit check and
///    the request/response split keeps its deadlock-freedom argument (see
///    `NocNi`). With `credit_return_delay > 0` a returning credit waits
///    that many cycles instead of materializing at the drain point
///    instantaneously — the pool tracks the pending returns, and
///    conservation (held + in flight == capacity) stays asserted on every
///    transition.
///
/// Sharded execution (see `sim::EdgeFlushable`): links and pools that cross
/// shard boundaries run in *edge-registered* mode — producer-side writes
/// are staged thread-privately during the tick phase and committed at the
/// cycle-edge barrier. Because the registered contract already makes every
/// push visible only at N+1 (and mesh credit returns ride the response
/// network for >= 1 cycle), the commit point is unobservable: results are
/// bit-identical for every shard count, including the single-thread run.
#pragma once

#include "axi/channel.hpp"
#include "noc/packet.hpp"

#include "sim/check.hpp"
#include "sim/context.hpp"
#include "sim/link.hpp"
#include "sim/ring.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace realm::noc {

/// Flow-control knobs shared by every NoC fabric (ring and mesh).
struct NocFlowConfig {
    /// Flits per data-carrying packet (W / R beat): header + payload flits,
    /// i.e. the AXI beat width over the link phit width. AW / AR / B
    /// packets are single-flit headers.
    std::uint32_t flits_per_packet = 4;
    /// Receiver buffer depth of one link VC, in flits. Must hold at least
    /// one whole worm (`vc_depth >= flits_per_packet`).
    std::uint32_t vc_depth = 8;
    /// End-to-end credit pool per (manager, subordinate) pair and
    /// direction, in flits. Bounds the per-manager staging occupancy at a
    /// subordinate NI (request pool) and the response flits a manager may
    /// have requested from one subordinate and not yet received (response
    /// pool; a read whose response exceeds the whole pool goes out
    /// unreserved). Must exceed one worm plus its header
    /// (`e2e_credits >= flits_per_packet + 1`) so an AW parked in staging
    /// can never starve its own data beats.
    std::uint32_t e2e_credits = 32;
    /// Cycles a returning end-to-end credit waits before its taker may
    /// reuse it (0 = instantaneous release at the drain point, the
    /// historical behaviour; the mesh forces >= 1 so request-credit returns
    /// are cycle-edge events the sharded kernel can commit at the
    /// barrier). Sharpens the round-trip-limited throughput
    /// numbers without touching any buffer bound: a pending return still
    /// counts as in flight.
    std::uint32_t credit_return_delay = 0;
    /// Uniform pipeline depth of every link, in cycles: a flit pushed at
    /// cycle N becomes poppable at N + link_latency. 1 is the historical
    /// registered contract (push at N, visible at N+1). Values > 1 model
    /// channel registering (AXI-REALM-style pipelined interconnects) and
    /// are the conservative lookahead of the sharded kernel: with every
    /// cross-shard channel carrying >= L cycles of modeled latency, shards
    /// may run L cycles between barriers (the mesh forces
    /// `credit_return_delay >= link_latency` so credit returns carry the
    /// same lookahead).
    std::uint32_t link_latency = 1;

    /// Flit count of a request/response packet under this config.
    [[nodiscard]] std::uint32_t packet_flits(bool data_carrying) const noexcept {
        return data_carrying ? flits_per_packet : 1;
    }

    void validate() const;
};

/// One end-to-end credit pool: a counted reservation of `capacity` flits of
/// buffer space at a receiving NI. `in_flight + available == capacity` is
/// asserted on every transition, so a leak or double-release trips
/// immediately instead of showing up as a hung sweep hours later. Credits
/// released with `release_at` stay in flight (a request credit riding the
/// response network back) until their ready cycle; `settle(now)` matures
/// them.
///
/// Cross-shard pools use `stage_release` instead of `release_at`: the
/// releasing shard appends to a pool-private staging vector (no lock — one
/// shard releases into any given pool) and the kernel commits the batch at
/// the cycle edge via `flush_edge`. The taker's `settle`/`take` run on the
/// consuming shard and never touch the staging storage, so the tick phase
/// is race-free.
class CreditPool : public sim::EdgeFlushable {
public:
    explicit CreditPool(std::uint32_t capacity = 0) : capacity_{capacity},
                                                      available_{capacity} {
        // Conservation bounds the pending queue: every pending return holds
        // >= 1 flit and pending_total_ <= in_flight <= capacity, so at most
        // `capacity` entries ever queue. Reserving that bound here keeps
        // release_at/settle allocation-free for the lifetime of the pool.
        pending_.reserve(capacity_);
    }

    [[nodiscard]] bool can_take(std::uint32_t flits) const noexcept {
        return available_ >= flits;
    }
    void take(std::uint32_t flits) {
        REALM_EXPECTS(can_take(flits), "credit take without available credits");
        available_ -= flits;
    }
    /// Immediate release (zero return delay): the flits are reusable now.
    void release(std::uint32_t flits) {
        REALM_ENSURES(flits <= in_flight() - pending_total_,
                      "credit release exceeds in-flight credits");
        available_ += flits;
    }
    /// Delayed release: the credits stay in flight until `ready_at`, then
    /// mature on `settle`.
    void release_at(sim::Cycle ready_at, std::uint32_t flits) {
        REALM_ENSURES(flits <= in_flight() - pending_total_,
                      "credit release exceeds in-flight credits");
        pending_.push_back(Pending{ready_at, flits});
        pending_total_ += flits;
    }
    /// Cross-shard release: staged thread-privately, committed into the
    /// pending queue at the cycle-edge flush. `ready_at` must be strictly
    /// past the staging cycle (the mesh forces `credit_return_delay >= 1`),
    /// so deferring the commit to the barrier is unobservable.
    void stage_release(sim::Cycle ready_at, std::uint32_t flits) {
        staged_.push_back(Pending{ready_at, flits});
    }
    /// Commits staged releases (kernel barrier; single-threaded).
    void flush_edge(sim::Cycle /*now*/) override {
        for (const Pending& p : staged_) {
            REALM_ENSURES(p.flits <= in_flight() - pending_total_,
                          "credit release exceeds in-flight credits");
            pending_.push_back(p);
            pending_total_ += p.flits;
        }
        staged_.clear();
    }
    /// Matures every pending return whose ready cycle has arrived. Returns
    /// are queued in release order and delays are uniform, so the queue
    /// head is always the earliest.
    void settle(sim::Cycle now) {
        while (!pending_.empty() && pending_.front().ready_at <= now) {
            available_ += pending_.front().flits;
            pending_total_ -= pending_.front().flits;
            pending_.pop_front();
        }
    }

    /// \name Credit-return policy (the staging links' drain hook and the
    ///       NI's response delivery both return through it)
    ///@{
    /// Fixes how returned flits come back to this pool: immediately
    /// (`delay == 0`), after `delay` cycles on the response network, or —
    /// with `deferred` (mesh fabrics) — staged and committed at the
    /// cycle-edge barrier so the hook is safe to fire from any shard.
    /// Stored in the pool itself so the links' pop hooks need no captured
    /// state (see `sim::PopHook`); `ctx` must outlive the pool.
    void configure_return(const sim::SimContext& ctx, std::uint32_t delay,
                          bool deferred) noexcept {
        return_ctx_ = &ctx;
        return_delay_ = delay;
        return_deferred_ = deferred;
    }
    /// Returns `flits` credits under the configured policy.
    void return_credits(std::uint32_t flits) {
        REALM_EXPECTS(return_ctx_ != nullptr,
                      "credit return without a configured policy");
        if (return_deferred_) {
            if (staged_.empty()) { return_ctx_->note_edge_dirty(*this); }
            stage_release(return_ctx_->now() + return_delay_, flits);
        } else if (return_delay_ == 0) {
            release(flits);
        } else {
            release_at(return_ctx_->now() + return_delay_, flits);
        }
    }
    /// `sim::PopHook`-shaped trampoline: `user` is the pool, `arg` the flit
    /// count of the drained packet.
    static void return_hook(void* pool, std::uint32_t flits) {
        static_cast<CreditPool*>(pool)->return_credits(flits);
    }
    ///@}

    [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::uint32_t available() const noexcept { return available_; }
    /// Credits not reusable by the injector: taken by in-network/staged
    /// worms (or owed responses) *plus* pending returns.
    [[nodiscard]] std::uint32_t in_flight() const noexcept {
        return capacity_ - available_;
    }
    /// The pending-return share of `in_flight()`.
    [[nodiscard]] std::uint32_t pending_returns() const noexcept {
        return pending_total_;
    }

    /// Conservation invariant: credits in flight + credits held equal the
    /// configured pool, and pending returns never exceed what is in flight.
    /// Structurally true of the counters; asserting it (rather than
    /// sampling) documents and pins the contract.
    void check_conserved() const {
        REALM_ENSURES(available_ <= capacity_, "credit pool over-released");
        REALM_ENSURES(in_flight() + available_ == capacity_,
                      "credit conservation violated");
        REALM_ENSURES(pending_total_ <= in_flight(),
                      "pending credit returns exceed in-flight credits");
    }

private:
    struct Pending {
        sim::Cycle ready_at = 0;
        std::uint32_t flits = 0;
    };

    std::uint32_t capacity_ = 0;
    std::uint32_t available_ = 0;
    std::uint32_t pending_total_ = 0;
    /// Queued returns in one contiguous block, reserved to the conservation
    /// bound at construction (replaces a `std::deque` and its 512-byte
    /// chunk allocations on the settle hot path).
    sim::FlatRing<Pending> pending_;
    std::vector<Pending> staged_; ///< cross-shard releases awaiting the edge
    /// Return policy (see `configure_return`); unset until wired.
    const sim::SimContext* return_ctx_ = nullptr;
    std::uint32_t return_delay_ = 0;
    bool return_deferred_ = false;
};

/// Every end-to-end pool of one fabric, in one dense table over
/// (subordinate slot x manager slot): request pools keyed by (target
/// subordinate, source manager) and response pools by (target manager,
/// source subordinate). Only managers send requests and only subordinates
/// answer them, so these are exactly the pairs that can carry traffic; a
/// lookup for any other pair asserts. Request and response pools are kept
/// separate so the request/response protocol split stays deadlock-free
/// under credit exhaustion. A request pool is taken by the manager's NI and
/// returned by the subordinate's egress lanes; a response pool is taken and
/// returned by the manager's NI alone.
///
/// The book also owns the fabric's two slot maps, node -> subordinate slot
/// and node -> manager slot; the fabrics and every `NocNi` size and index
/// their per-pair state through them. A subordinate slot is the node's
/// position in the subordinate list. Manager slots follow ascending node
/// order whatever the order of the list, so a round-robin over manager
/// slots visits managers in the order a scan over every node would.
/// The table is complete at construction and never resized, so the pool
/// references handed to the credit-return hooks stay valid and the sharded
/// tick phase never mutates the book's structure; each pool keeps its own
/// one-writer-per-side contract (see `CreditPool`).
class CreditBook {
public:
    /// Slot of a node that hosts no subordinate (or no manager).
    static constexpr NodeId kNoSlot = std::numeric_limits<NodeId>::max();

    /// \param subordinate_nodes  nodes hosting a subordinate, and
    /// \param manager_nodes      nodes hosting a manager: each below
    ///                           `num_nodes` and listed once (asserted).
    /// \param deferred           every pool returns credits after
    ///        `fc.credit_return_delay` cycles, and request pools stage them
    ///        for the cycle-edge flush when set (see
    ///        `CreditPool::configure_return`) — required when the fabric is
    ///        spatially sharded, where a request pool's taker may tick on
    ///        another shard; requires a delay of at least 1.
    CreditBook(const sim::SimContext& ctx, NodeId num_nodes,
               std::vector<NodeId> subordinate_nodes, std::vector<NodeId> manager_nodes,
               const NocFlowConfig& fc, bool deferred);

    /// Pool for requests from manager node `src` toward subordinate node
    /// `dest`.
    [[nodiscard]] CreditPool& req(NodeId dest, NodeId src) {
        return req_[index(dest, src)];
    }
    [[nodiscard]] const CreditPool& req(NodeId dest, NodeId src) const {
        return req_[index(dest, src)];
    }
    /// Pool for responses from subordinate node `src` toward manager node
    /// `dest`.
    [[nodiscard]] CreditPool& rsp(NodeId dest, NodeId src) {
        return rsp_[index(src, dest)];
    }
    [[nodiscard]] const CreditPool& rsp(NodeId dest, NodeId src) const {
        return rsp_[index(src, dest)];
    }

    [[nodiscard]] NodeId num_nodes() const noexcept {
        return static_cast<NodeId>(sub_slot_.size());
    }
    /// Subordinate nodes, in slot order.
    [[nodiscard]] const std::vector<NodeId>& subordinates() const noexcept {
        return subs_;
    }
    /// Manager nodes, in slot order (ascending).
    [[nodiscard]] const std::vector<NodeId>& managers() const noexcept {
        return mgrs_;
    }
    /// Subordinate slot of `node`, or `kNoSlot` when it hosts none.
    [[nodiscard]] NodeId subordinate_slot(NodeId node) const {
        REALM_EXPECTS(node < num_nodes(), "node id out of range");
        return sub_slot_[node];
    }
    /// Manager slot of `node`, or `kNoSlot` when it hosts none.
    [[nodiscard]] NodeId manager_slot(NodeId node) const {
        REALM_EXPECTS(node < num_nodes(), "node id out of range");
        return mgr_slot_[node];
    }
    /// Pools per direction: subordinates x managers.
    [[nodiscard]] std::size_t pools() const noexcept { return req_.size(); }

    /// Asserts conservation on every pool.
    void check_conserved() const {
        for (const CreditPool& p : req_) { p.check_conserved(); }
        for (const CreditPool& p : rsp_) { p.check_conserved(); }
    }

private:
    /// Table index of the pair (subordinate node `sub`, manager node `mgr`).
    [[nodiscard]] std::size_t index(NodeId sub, NodeId mgr) const {
        const NodeId s = subordinate_slot(sub);
        const NodeId m = manager_slot(mgr);
        REALM_EXPECTS(s != kNoSlot,
                      "credit pool for a pair without a subordinate end");
        REALM_EXPECTS(m != kNoSlot, "credit pool for a pair without a manager end");
        return static_cast<std::size_t>(s) * mgrs_.size() + m;
    }

    std::vector<NodeId> subs_;     ///< subordinate slot -> node
    std::vector<NodeId> mgrs_;     ///< manager slot -> node
    std::vector<NodeId> sub_slot_; ///< node -> subordinate slot or kNoSlot
    std::vector<NodeId> mgr_slot_; ///< node -> manager slot or kNoSlot
    std::vector<CreditPool> req_;
    std::vector<CreditPool> rsp_;
};

/// One NoC link: a physical wormhole channel carrying `num_vcs` virtual
/// channels. The channel transmits one flit per cycle (a worm of `n` flits
/// occupies it for `n` cycles — wormhole serialization; the header still
/// forwards with the usual one-cycle hop latency) and each VC buffers at
/// most `vc_depth` flits at the receiver, asserted on every push. A packet
/// rides the VC named by its route and message class (`NocPacket::vc`);
/// VCs hold private buffers, so a blocked worm in one class never holds
/// buffer space another class waits on — the O1TURN deadlock-freedom
/// requirement, and what lets a read pass a blocked write (see
/// noc/routing.hpp).
///
/// Storage: the link owns none. Whoever builds it hands it a span of
/// `slots_needed` raw slots — `vc_depth` per VC, addressed as per-VC ring
/// buffers — and keeps them alive: a fabric carves every link's span out
/// of one block (see `NocFabric`), a standalone link brings its own. A
/// slot is never initialised up front; `commit` constructs an entry in
/// place when a flit lands, and only a VC's live entries
/// `[head, head + count)` are ever read. The per-VC ring state is inline.
///
/// Modes:
///  - **Immediate** (default; ring fabric, standalone links): `push`
///    commits into the ring at once. Capacity checks see pops the moment
///    they happen — including same-cycle pops by consumers that ticked
///    earlier, which is why immediate links must never cross shards.
///  - **Edge-registered** (`edge_registered = true`; every mesh link):
///    `push` stages producer-side, the kernel commits at the cycle-edge
///    barrier (`flush_edge`), and the producer's capacity view is a
///    snapshot refreshed at the same barrier. Pushes are stamped with the
///    staging cycle, so visibility (at N + link_latency) is exactly the
///    pipelined registered contract; what changes is that a pop at cycle N
///    frees sender-visible space at the next barrier instead of
///    same-cycle — deterministic and order-independent, hence safe under
///    any shard layout (the flit exchange of the sharded kernel), at the
///    cost of a barrier period of capacity-return latency.
class NocLink : public sim::EdgeFlushable {
    struct Entry {
        NocPacket pkt;
        sim::Cycle pushed_at = 0;
    };
    // A popped entry is left in its slot, and the slots are released
    // without visiting them, so an entry must need no destructor.
    static_assert(std::is_trivially_destructible_v<Entry>);

public:
    /// Most VCs one link carries: one per route class and message class
    /// (four under O1TURN, see `link_num_vcs`).
    static constexpr std::uint8_t kMaxVcs = 4;

    /// Raw storage for one ring entry (see the class comment).
    struct Slot {
        alignas(Entry) std::byte bytes[sizeof(Entry)];
    };
    /// Slots a link of `num_vcs` VCs needs under `fc`.
    [[nodiscard]] static std::size_t slots_needed(const NocFlowConfig& fc,
                                                  std::uint8_t num_vcs) noexcept {
        return static_cast<std::size_t>(num_vcs) * fc.vc_depth;
    }

    /// \param slots  exactly `slots_needed(fc, num_vcs)` slots, kept alive
    ///        by the caller for the link's lifetime.
    NocLink(const sim::SimContext& ctx, std::string name, const NocFlowConfig& fc,
            std::span<Slot> slots, std::uint8_t num_vcs = 1,
            bool edge_registered = false);
    NocLink(const NocLink&) = delete;
    NocLink& operator=(const NocLink&) = delete;

    /// True when a packet of `flits` flits may start transmission on VC
    /// `vc` this cycle: the physical channel is not serializing an earlier
    /// worm and that VC holds enough free flit slots at the receiver (in
    /// edge mode, as of the last cycle edge).
    [[nodiscard]] bool can_push(std::uint32_t flits, std::uint8_t vc = 0) const {
        const VcState& s = state(vc);
        const std::uint32_t pkts = edge_ ? s.snap_count + s.staged_count : s.count;
        const std::uint32_t occ = edge_ ? s.snap_flits + s.staged_flits : s.flits;
        return ctx_->now() >= busy_until_ && pkts < cap_ &&
               occ + flits <= fc_.vc_depth;
    }
    [[nodiscard]] bool can_push(const NocPacket& pkt) const {
        return can_push(pkt.flits, pkt.vc);
    }

    void push(NocPacket pkt);

    [[nodiscard]] bool can_pop(std::uint8_t vc = 0) const {
        const VcState& s = state(vc);
        return s.count > 0 &&
               entry(vc, s.head).pushed_at + fc_.link_latency <= ctx_->now();
    }
    [[nodiscard]] const NocPacket& front(std::uint8_t vc = 0) const {
        REALM_EXPECTS(can_pop(vc), "front of empty NoC link " + name_);
        return entry(vc, vc_[vc].head).pkt;
    }
    NocPacket pop(std::uint8_t vc = 0);

    /// Consumer view: no committed packets on any VC (staged pushes are
    /// covered by the flush-time wake, so a consumer may sleep on this).
    [[nodiscard]] bool empty() const noexcept { return occupied_ == 0; }
    /// Consumer view: bit `vc` is set while VC `vc` holds a committed
    /// packet, so a router skips the empty VCs of an input without
    /// visiting them.
    [[nodiscard]] std::uint8_t occupied_vcs() const noexcept { return occupied_; }
    void set_wake_on_push(sim::Component* c) noexcept { wake_on_push_ = c; }

    /// Commits staged pushes into the rings and refreshes the producer's
    /// capacity snapshot (kernel barrier; single-threaded).
    void flush_edge(sim::Cycle now) override;

    /// \name Introspection (routing adaptivity, tests, benches)
    ///@{
    [[nodiscard]] std::uint8_t num_vcs() const noexcept { return num_vcs_; }
    /// Producer-side occupancy: committed + own staged flits in edge mode
    /// (deterministic under any shard layout — never reads state another
    /// shard is mutating), live occupancy otherwise. The west-first
    /// adaptivity tie-break reads this.
    [[nodiscard]] std::uint32_t buffered_flits(std::uint8_t vc = 0) const {
        const VcState& s = state(vc);
        return edge_ ? s.snap_flits + s.staged_flits : s.flits;
    }
    [[nodiscard]] std::uint32_t peak_buffered_flits(std::uint8_t vc = 0) const {
        return state(vc).peak;
    }
    [[nodiscard]] const NocFlowConfig& flow() const noexcept { return fc_; }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    ///@}

    /// Asserts the per-VC occupancy bound (tests call this every cycle;
    /// pushes already enforce it inline).
    void check_bounded() const {
        for (std::uint8_t vc = 0; vc < num_vcs_; ++vc) {
            REALM_ENSURES(vc_[vc].flits + vc_[vc].staged_flits <= fc_.vc_depth,
                          name_ + ": VC buffer exceeds its configured depth");
        }
    }

private:
    /// Per-VC ring state over the link's slots. `count`/`flits` are live
    /// (consumer + flush); `snap_*` is the producer's edge snapshot;
    /// `staged_*` counts the producer's uncommitted pushes.
    struct VcState {
        std::uint32_t head = 0;
        std::uint32_t count = 0;
        std::uint32_t flits = 0;
        std::uint32_t peak = 0;
        std::uint32_t snap_count = 0;
        std::uint32_t snap_flits = 0;
        std::uint32_t staged_count = 0;
        std::uint32_t staged_flits = 0;
    };

    /// State of VC `vc`, which must be one of this link's own VCs (not
    /// merely within the inline array).
    [[nodiscard]] const VcState& state(std::uint8_t vc) const {
        REALM_EXPECTS(vc < num_vcs_, "NoC link VC out of range");
        return vc_[vc];
    }
    [[nodiscard]] Slot& slot(std::uint8_t vc, std::uint32_t pos) const {
        return slots_[static_cast<std::size_t>(vc) * cap_ + pos % cap_];
    }
    /// The live entry at ring position `pos` of VC `vc`: only positions in
    /// `[head, head + count)` hold one.
    [[nodiscard]] Entry& entry(std::uint8_t vc, std::uint32_t pos) const {
        return *std::launder(reinterpret_cast<Entry*>(slot(vc, pos).bytes));
    }
    void commit(const Entry& e); ///< constructs one entry at its VC ring's tail

    const sim::SimContext* ctx_;
    NocFlowConfig fc_;
    std::string name_;
    bool edge_;
    std::uint8_t num_vcs_;
    std::uint32_t cap_; ///< ring slots per VC (== vc_depth packets)
    std::span<Slot> slots_;
    std::array<VcState, kMaxVcs> vc_{};
    std::uint8_t occupied_ = 0; ///< one bit per VC with `count > 0`
    /// Edge mode: pushes awaiting the barrier. Producer-owned during the
    /// tick phase (cleared at the barrier); the consumer must never read it.
    std::vector<Entry> staged_;
    /// Edge mode: pops since the last flush. Consumer-owned during the tick
    /// phase (cleared at the barrier); the producer must never read it.
    bool pop_dirty_ = false;
    sim::Cycle busy_until_ = 0;
    sim::Component* wake_on_push_ = nullptr;
};

/// \name Staging helpers shared by the ring and mesh assemblies
///@{
/// Entries per staging lane: the end-to-end pools bound a lane at
/// `e2e_credits` single-flit entries, requests and reserved responses
/// alike.
[[nodiscard]] std::size_t staging_depth(const NocFlowConfig& fc);

/// Wires the end-to-end credit returns of one per-source staging channel:
/// the pool's flits come back, under its return policy (see `CreditBook`),
/// as the egress mux drains the lanes.
void wire_credit_returns(axi::AxiChannel& egress, CreditPool& pool,
                         const NocFlowConfig& fc);

/// Flits currently staged in one per-source egress channel's request lanes,
/// weighted by worm length (a staged W beat holds its whole worm's buffer
/// space). Used by the fabric invariant checkers.
[[nodiscard]] std::uint32_t staged_request_flits(const axi::AxiChannel& egress,
                                                 const NocFlowConfig& fc);

/// Asserts one (target NI, source) staging against its end-to-end pool:
/// staged flits (lane occupancy plus the NI's reorder stash, see `NocNi`)
/// within the configured pool, and never more than the credits actually in
/// flight (a credit is either staged at the NI, stashed for reordering, or
/// still in the network). Shared by the ring and mesh
/// `check_flow_invariants`.
void check_staging_invariants(const axi::AxiChannel& egress, const CreditPool& pool,
                              const NocFlowConfig& fc,
                              std::uint32_t stashed_flits = 0);
///@}

} // namespace realm::noc
