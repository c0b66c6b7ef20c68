#include "mem/error_slave.hpp"

namespace realm::mem {

ErrorSlave::ErrorSlave(sim::SimContext& ctx, std::string name, axi::AxiChannel& channel)
    : Component{ctx, std::move(name)}, port_{channel} {
    channel.wake_subordinate_on_request(*this);
}

void ErrorSlave::tick() {
    if (port_.has_aw()) {
        const axi::AwFlit aw = port_.recv_aw();
        writes_.push_back(PendingWrite{aw.id, aw.beats()});
    }
    if (port_.has_ar()) {
        const axi::ArFlit ar = port_.recv_ar();
        reads_.push_back(PendingRead{ar.id, ar.beats()});
    }
    // Swallow write data; respond once the burst is complete.
    if (!writes_.empty() && writes_.front().beats_left > 0 && port_.has_w()) {
        const axi::WFlit w = port_.recv_w();
        PendingWrite& pw = writes_.front();
        --pw.beats_left;
        if (pw.beats_left == 0 || w.last) { pw.beats_left = 0; }
    }
    if (!writes_.empty() && writes_.front().beats_left == 0 && port_.can_send_b()) {
        axi::BFlit b;
        b.id = writes_.front().id;
        b.resp = axi::Resp::kDecErr;
        port_.send_b(b);
        writes_.pop_front();
        ++errors_;
    }
    if (!reads_.empty() && port_.can_send_r()) {
        PendingRead& pr = reads_.front();
        axi::RFlit r;
        r.id = pr.id;
        r.resp = axi::Resp::kDecErr;
        --pr.beats_left;
        r.last = pr.beats_left == 0;
        port_.send_r(r);
        if (r.last) {
            reads_.pop_front();
            ++errors_;
        }
    }
    // Sleep unless progress is possible without a new request flit: an R
    // stream in flight or a completed write awaiting its B slot keeps us
    // awake; a write burst waiting for W data is woken by the W push.
    const bool b_pending = !writes_.empty() && writes_.front().beats_left == 0;
    if (reads_.empty() && !b_pending && port_.channel().requests_empty()) {
        idle_forever();
    }
}

} // namespace realm::mem
