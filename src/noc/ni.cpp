#include "noc/ni.hpp"

#include "sim/check.hpp"

#include <utility>

namespace realm::noc {

NocNi::NocNi(const sim::SimContext& ctx, std::string owner, NodeId self,
             const NocFlowConfig& fc, CreditBook* book, RoutingPolicy routing)
    : ctx_{&ctx}, owner_{std::move(owner)}, fc_{fc}, book_{book}, routing_{routing},
      self_{self} {
    REALM_EXPECTS(book_ != nullptr, owner_ + ": NoC NI needs a credit book");
    // A manager NI talks to every subordinate, a subordinate NI to every
    // manager; a pass-through node keeps no pair state at all.
    const std::size_t subs = book_->manager_slot(self_) == CreditBook::kNoSlot
                                 ? 0
                                 : book_->subordinates().size();
    const std::size_t mgrs = book_->subordinate_slot(self_) == CreditBook::kNoSlot
                                 ? 0
                                 : book_->managers().size();
    req_seq_.assign(subs * kMessageClasses, 0);
    rsp_reorder_.resize(subs * kMessageClasses);
    reads_.resize(subs);
    unreserved_flits_.assign(subs, 0);
    rsp_seq_.assign(mgrs * kMessageClasses, 0);
    req_reorder_.resize(mgrs * kMessageClasses);
    rsp_next_ = first_response_slot() * kMessageClasses;
    rsp_out_next_.fill(rsp_next_);
}

void NocNi::update_rsp_stash_index(std::uint32_t i) {
    const bool nonempty = !rsp_reorder_[i].stash.empty();
    const auto it = std::lower_bound(rsp_stashed_.begin(), rsp_stashed_.end(), i);
    const bool present = it != rsp_stashed_.end() && *it == i;
    if (nonempty && !present) {
        rsp_stashed_.insert(it, i);
    } else if (!nonempty && present) {
        rsp_stashed_.erase(it);
    }
}

void NocNi::deliver_request(const NocPacket& pkt, axi::AxiChannel& ch) {
    // The injector held credits for this flit, so the staging space exists
    // by construction; a full lane here is a credit leak.
    if (const auto* aw = std::get_if<axi::AwFlit>(&pkt.flit)) {
        REALM_ENSURES(ch.aw.can_push(),
                      owner_ + ": credited request ejection backpressured");
        ch.aw.push(*aw);
        return;
    }
    if (const auto* w = std::get_if<axi::WFlit>(&pkt.flit)) {
        REALM_ENSURES(ch.w.can_push(),
                      owner_ + ": credited request ejection backpressured");
        ch.w.push(*w);
        return;
    }
    const auto* ar = std::get_if<axi::ArFlit>(&pkt.flit);
    REALM_EXPECTS(ar != nullptr, owner_ + ": malformed request packet");
    REALM_ENSURES(ch.ar.can_push(),
                  owner_ + ": credited request ejection backpressured");
    ch.ar.push(*ar);
}

bool NocNi::try_eject_request(const NocPacket& pkt,
                              const std::vector<axi::AxiChannel*>& egress) {
    const NodeId slot = book_->manager_slot(pkt.src);
    REALM_EXPECTS(!egress.empty(),
                  owner_ + ": request ejected at a node without a subordinate");
    REALM_EXPECTS(slot < egress.size(), owner_ + ": request from a node without a manager");
    axi::AxiChannel& ch = *egress[slot];
    Reorder& ro = req_reorder_[slot * kMessageClasses + pkt.message_class()];
    if (pkt.seq != ro.expected) {
        // Early arrival on a faster path: hold it (its credits stay in
        // flight) until the injection-order predecessors catch up.
        const bool inserted = ro.stash_insert(arena_, pkt.seq, pkt);
        REALM_ENSURES(inserted, owner_ + ": duplicate request sequence number");
        return true;
    }
    deliver_request(pkt, ch);
    ++ro.expected;
    // Close any gap the stash already covers, in injection order
    // (request delivery never backpressures, so this drains fully).
    drain_stash(arena_, ro, [&](const NocPacket& p) {
        deliver_request(p, ch);
        return true;
    });
    return true;
}

bool NocNi::deliver_response(const NocPacket& pkt, axi::AxiChannel& mgr) {
    // The response credits stay in flight until the delivery into the
    // manager channel actually happens (which may lag the arrival when the
    // packet sat in the reorder stash). Every AW reserved its B.
    bool reserved = true;
    if (const auto* b = std::get_if<axi::BFlit>(&pkt.flit)) {
        if (!mgr.b.can_push()) { return false; }
        if (InFlight* fl = find_in_flight_mut(w_in_flight_, b->id);
            fl != nullptr && fl->count > 0) {
            --fl->count;
        }
        mgr.b.push(*b);
    } else {
        const auto* r = std::get_if<axi::RFlit>(&pkt.flit);
        REALM_EXPECTS(r != nullptr, owner_ + ": malformed response packet");
        if (!mgr.r.can_push()) { return false; }
        const NodeId sub = book_->subordinate_slot(pkt.src);
        std::vector<ReadRecord>& reads = reads_[sub];
        const auto read = std::find_if(reads.begin(), reads.end(),
                                       [&](const ReadRecord& rd) { return rd.id == r->id; });
        REALM_ENSURES(read != reads.end(), owner_ + ": R beat without an outstanding read");
        reserved = read->reserved;
        if (!reserved) {
            REALM_ENSURES(unreserved_flits_[sub] >= pkt.flits,
                          owner_ + ": more unreserved response flits than owed");
            unreserved_flits_[sub] -= pkt.flits;
        }
        if (r->last) {
            reads.erase(read);
            if (InFlight* fl = find_in_flight_mut(r_in_flight_, r->id);
                fl != nullptr && fl->count > 0) {
                --fl->count;
            }
        }
        mgr.r.push(*r);
    }
    if (reserved) { book_->rsp(pkt.dest, pkt.src).return_credits(pkt.flits); }
    return true;
}

void NocNi::drain_response_stash(axi::AxiChannel* local_mgr) {
    if (local_mgr == nullptr || rsp_stashed_.empty()) { return; }
    // Iterate a snapshot (ascending index): draining rewrites the index.
    rsp_stash_scan_.assign(rsp_stashed_.begin(), rsp_stashed_.end());
    for (const std::uint32_t i : rsp_stash_scan_) {
        drain_stash(arena_, rsp_reorder_[i], [&](const NocPacket& p) {
            return deliver_response(p, *local_mgr);
        });
        update_rsp_stash_index(i);
    }
}

bool NocNi::try_eject_response(const NocPacket& pkt, axi::AxiChannel* local_mgr) {
    REALM_EXPECTS(local_mgr != nullptr,
                  owner_ + ": response ejected at a node without a manager");
    const std::uint32_t i = rsp_reorder_index(pkt.src, pkt.message_class());
    Reorder& ro = rsp_reorder_[i];
    if (pkt.seq != ro.expected) {
        const bool inserted = ro.stash_insert(arena_, pkt.seq, pkt);
        REALM_ENSURES(inserted, owner_ + ": duplicate response sequence number");
        update_rsp_stash_index(i);
        return true;
    }
    if (!deliver_response(pkt, *local_mgr)) { return false; }
    ++ro.expected;
    drain_stash(arena_, ro, [&](const NocPacket& p) {
        return deliver_response(p, *local_mgr);
    });
    update_rsp_stash_index(i);
    return true;
}

} // namespace realm::noc
