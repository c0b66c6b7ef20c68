#include "noc/credit.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace realm::noc {

void NocFlowConfig::validate() const {
    REALM_EXPECTS(flits_per_packet >= 1, "flits_per_packet must be >= 1");
    // NocPacket::flits is 8-bit; a longer worm would silently truncate at
    // packetization and leak credits at ejection.
    REALM_EXPECTS(flits_per_packet <= 255, "flits_per_packet must fit 8 bits");
    REALM_EXPECTS(vc_depth >= flits_per_packet,
                  "vc_depth must hold at least one whole worm");
    REALM_EXPECTS(e2e_credits >= flits_per_packet + 1,
                  "e2e_credits must exceed one worm plus its header");
    REALM_EXPECTS(link_latency >= 1, "link_latency must be >= 1");
}

namespace {

/// Fills `slot_of` (node -> slot) from `nodes` (slot -> node).
void assign_slots(const std::vector<NodeId>& nodes, std::vector<NodeId>& slot_of,
                  const char* role) {
    for (std::size_t s = 0; s < nodes.size(); ++s) {
        const NodeId node = nodes[s];
        REALM_EXPECTS(node < slot_of.size(), std::string{role} + " node out of range");
        REALM_EXPECTS(slot_of[node] == CreditBook::kNoSlot,
                      std::string{role} + " node listed twice");
        slot_of[node] = static_cast<NodeId>(s);
    }
}

} // namespace

CreditBook::CreditBook(const sim::SimContext& ctx, NodeId num_nodes,
                       std::vector<NodeId> subordinate_nodes,
                       std::vector<NodeId> manager_nodes, const NocFlowConfig& fc,
                       bool deferred)
    : subs_{std::move(subordinate_nodes)}, mgrs_{std::move(manager_nodes)},
      sub_slot_(num_nodes, kNoSlot), mgr_slot_(num_nodes, kNoSlot) {
    REALM_EXPECTS(!deferred || fc.credit_return_delay >= 1,
                  "deferred credit returns require credit_return_delay >= 1");
    std::sort(mgrs_.begin(), mgrs_.end());
    assign_slots(subs_, sub_slot_, "subordinate");
    assign_slots(mgrs_, mgr_slot_, "manager");
    // Built once and never resized: the credit-return hooks hold pointers
    // into these vectors.
    const std::size_t pools = subs_.size() * mgrs_.size();
    req_.reserve(pools);
    rsp_.reserve(pools);
    // A response pool is taken and returned by its manager's NI alone, so
    // its returns never cross a shard and need no edge staging.
    for (std::size_t i = 0; i < pools; ++i) {
        req_.emplace_back(fc.e2e_credits)
            .configure_return(ctx, fc.credit_return_delay, deferred);
        rsp_.emplace_back(fc.e2e_credits)
            .configure_return(ctx, fc.credit_return_delay, /*deferred=*/false);
    }
}

NocLink::NocLink(const sim::SimContext& ctx, std::string name, const NocFlowConfig& fc,
                 std::span<Slot> slots, std::uint8_t num_vcs, bool edge_registered)
    : ctx_{&ctx}, fc_{fc}, name_{std::move(name)}, edge_{edge_registered},
      num_vcs_{num_vcs}, cap_{fc.vc_depth}, slots_{slots} {
    REALM_EXPECTS(num_vcs >= 1 && num_vcs <= kMaxVcs,
                  name_ + ": a NoC link carries one to four VCs");
    REALM_EXPECTS(slots.size() == slots_needed(fc, num_vcs),
                  name_ + ": slot span does not match vc_depth x VCs");
}

void NocLink::commit(const Entry& e) {
    VcState& s = vc_[e.pkt.vc];
    REALM_ENSURES(s.count < cap_, name_ + ": VC ring overflow");
    s.flits += e.pkt.flits;
    REALM_ENSURES(s.flits <= fc_.vc_depth,
                  name_ + ": VC buffer exceeds its configured depth");
    if (s.flits > s.peak) { s.peak = s.flits; }
    // The slot past the tail holds no live entry: build one there.
    std::construct_at(reinterpret_cast<Entry*>(slot(e.pkt.vc, s.head + s.count).bytes), e);
    ++s.count;
    occupied_ |= static_cast<std::uint8_t>(1U << e.pkt.vc);
}

void NocLink::push(NocPacket pkt) {
    REALM_EXPECTS(pkt.vc < num_vcs_, "push into unknown VC of " + name_);
    REALM_EXPECTS(can_push(pkt.flits, pkt.vc),
                  "push into busy/full NoC link " + name_);
    // The worm's tail leaves the sender `flits` cycles after the header;
    // the physical channel is busy until then (shared across VCs).
    busy_until_ = ctx_->now() + pkt.flits;
    if (!edge_) {
        commit(Entry{std::move(pkt), ctx_->now()});
        if (wake_on_push_ != nullptr) {
            wake_on_push_->wake(ctx_->now() + fc_.link_latency);
        }
        return;
    }
    // Edge mode: stage producer-side, stamped with the staging cycle so
    // visibility stays exactly N + link_latency however late the barrier
    // commits it. The registration guard reads producer-owned state only
    // (`staged_` is appended here and cleared at the barrier) — a
    // cross-shard consumer's pop may register the link a second time from
    // its own shard, which is harmless because flush_edge is idempotent.
    VcState& s = vc_[pkt.vc];
    ++s.staged_count;
    s.staged_flits += pkt.flits;
    if (staged_.empty()) { ctx_->note_edge_dirty(*this); }
    staged_.push_back(Entry{std::move(pkt), ctx_->now()});
    // Keep the fast-forward hint honest without touching the (possibly
    // cross-shard) consumer: the component wake fires at the flush.
    ctx_->note_wake(ctx_->now() + fc_.link_latency);
}

NocPacket NocLink::pop(std::uint8_t vc) {
    REALM_EXPECTS(can_pop(vc), "pop from empty NoC link " + name_);
    VcState& s = vc_[vc];
    NocPacket pkt = entry(vc, s.head).pkt;
    REALM_ENSURES(s.flits >= pkt.flits, "NoC link flit underflow");
    s.flits -= pkt.flits;
    s.head = (s.head + 1) % cap_;
    if (--s.count == 0) { occupied_ &= static_cast<std::uint8_t>(~(1U << vc)); }
    if (edge_ && !pop_dirty_) {
        // The producer's capacity snapshot must learn about this pop at the
        // next edge even if nothing gets pushed meanwhile. Guard on
        // consumer-owned state only (`pop_dirty_` is set here and cleared at
        // the barrier) — never read `staged_`, which the producer's push may
        // be appending to on another shard. If the producer registered too,
        // the duplicate flush is a no-op (flush_edge is idempotent).
        pop_dirty_ = true;
        ctx_->note_edge_dirty(*this);
    }
    return pkt;
}

// Idempotent within one edge (the link may be registered by both its
// producer and its consumer shard): the second call sees an empty staging
// vector and re-takes an unchanged snapshot.
void NocLink::flush_edge(sim::Cycle /*now*/) {
    // The consumer wakes at the earliest cycle any committed entry becomes
    // poppable (`pushed_at + link_latency`), never before: with lookahead
    // batching the barrier runs every `link_latency` cycles, so an entry
    // staged mid-batch matures strictly after this flush. At link_latency 1
    // this degenerates to the historical wake at the flush cycle itself.
    sim::Cycle first = sim::kNoCycle;
    for (const Entry& e : staged_) {
        first = std::min(first, e.pushed_at);
        commit(e);
    }
    staged_.clear();
    for (std::uint8_t vc = 0; vc < num_vcs_; ++vc) {
        VcState& s = vc_[vc];
        s.staged_count = 0;
        s.staged_flits = 0;
        s.snap_count = s.count;
        s.snap_flits = s.flits;
    }
    pop_dirty_ = false;
    if (first != sim::kNoCycle && wake_on_push_ != nullptr) {
        wake_on_push_->wake(first + fc_.link_latency);
    }
}

std::size_t staging_depth(const NocFlowConfig& fc) { return fc.e2e_credits; }

void wire_credit_returns(axi::AxiChannel& egress, CreditPool& pool,
                         const NocFlowConfig& fc) {
    const std::uint32_t data_flits = fc.packet_flits(/*data_carrying=*/true);
    // The policy lives in the pool; the links carry only {trampoline, pool,
    // flit count} — no allocation, no type erasure (see sim::PopHook).
    egress.aw.set_on_pop({&CreditPool::return_hook, &pool, 1});
    egress.ar.set_on_pop({&CreditPool::return_hook, &pool, 1});
    egress.w.set_on_pop({&CreditPool::return_hook, &pool, data_flits});
}

std::uint32_t staged_request_flits(const axi::AxiChannel& egress,
                                   const NocFlowConfig& fc) {
    const std::uint32_t data_flits = fc.packet_flits(/*data_carrying=*/true);
    return static_cast<std::uint32_t>(egress.aw.occupancy()) +
           static_cast<std::uint32_t>(egress.ar.occupancy()) +
           static_cast<std::uint32_t>(egress.w.occupancy()) * data_flits;
}

void check_staging_invariants(const axi::AxiChannel& egress, const CreditPool& pool,
                              const NocFlowConfig& fc,
                              std::uint32_t stashed_flits) {
    const std::uint32_t staged = staged_request_flits(egress, fc) + stashed_flits;
    REALM_ENSURES(staged <= fc.e2e_credits,
                  "NI staging exceeds its end-to-end credit pool");
    REALM_ENSURES(staged <= pool.in_flight(),
                  "staged flits without matching in-flight credits");
}

} // namespace realm::noc
