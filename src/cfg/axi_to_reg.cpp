#include "cfg/axi_to_reg.hpp"

#include "sim/check.hpp"

#include <cstring>
#include <utility>

namespace realm::cfg {

AxiToReg::AxiToReg(sim::SimContext& ctx, std::string name, axi::AxiChannel& channel,
                   RegTarget& target, axi::Addr base)
    : Component{ctx, std::move(name)}, port_{channel}, target_{&target}, base_{base} {
    channel.wake_subordinate_on_request(*this);
}

void AxiToReg::tick() {
    step_datapath();
    // Sleep when only a new request flit (or the W data of a pending write,
    // also a request-side push) can create work. An error-burst R stream or
    // a backpressured response keeps us awake.
    if (err_read_beats_ == 0 && port_.channel().requests_empty()) { idle_forever(); }
}

void AxiToReg::step_datapath() {
    // --- Write path: AW, then one W beat per cycle, B after the last. ---
    if (!write_pending_ && port_.has_aw()) {
        pending_aw_ = port_.recv_aw();
        write_pending_ = true;
    }
    if (write_pending_ && port_.has_w() && port_.can_send_b()) {
        const axi::WFlit w = port_.recv_w();
        axi::BFlit b;
        b.id = pending_aw_.id;
        if (pending_aw_.len != 0) {
            // Config space accepts no bursts: swallow the data, error once.
            b.resp = axi::Resp::kSlvErr;
        } else {
            RegReq req;
            req.addr = pending_aw_.addr - base_;
            req.write = true;
            req.tid = pending_aw_.id;
            // Registers are 32-bit on a 64-bit bus: pick the lane addressed.
            const std::size_t lane = static_cast<std::size_t>(pending_aw_.addr % 8) & 4U;
            std::uint32_t v = 0;
            std::memcpy(&v, w.data.bytes.data() + lane, sizeof v);
            req.wdata = v;
            const RegRsp rsp = target_->reg_access(req);
            b.resp = rsp.error ? axi::Resp::kSlvErr : axi::Resp::kOkay;
            ++writes_;
        }
        if (w.last) {
            if (b.resp != axi::Resp::kOkay) { ++errors_; }
            port_.send_b(b);
            write_pending_ = false;
        }
    }

    // --- Read path: one R beat per cycle. ---
    if (err_read_beats_ > 0) {
        if (port_.can_send_r()) {
            axi::RFlit r;
            r.id = err_read_id_;
            r.resp = axi::Resp::kSlvErr;
            --err_read_beats_;
            r.last = err_read_beats_ == 0;
            port_.send_r(r);
        }
        return;
    }
    if (port_.has_ar() && port_.can_send_r()) {
        const axi::ArFlit ar = port_.recv_ar();
        if (ar.len != 0) {
            // Burst read of config space: SLVERR every beat, starting now.
            ++errors_;
            err_read_id_ = ar.id;
            err_read_beats_ = ar.beats();
            axi::RFlit r;
            r.id = ar.id;
            r.resp = axi::Resp::kSlvErr;
            --err_read_beats_;
            r.last = err_read_beats_ == 0;
            port_.send_r(r);
            return;
        }
        RegReq req;
        req.addr = ar.addr - base_;
        req.write = false;
        req.tid = ar.id;
        const RegRsp rsp = target_->reg_access(req);
        axi::RFlit r;
        r.id = ar.id;
        r.last = true;
        r.resp = rsp.error ? axi::Resp::kSlvErr : axi::Resp::kOkay;
        if (rsp.error) { ++errors_; }
        const std::size_t lane = static_cast<std::size_t>(ar.addr % 8) & 4U;
        std::memcpy(r.data.bytes.data() + lane, &rsp.rdata, sizeof rsp.rdata);
        ++reads_;
        port_.send_r(r);
    }
}

} // namespace realm::cfg
