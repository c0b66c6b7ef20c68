#include "traffic/core.hpp"

#include "axi/builder.hpp"
#include "sim/check.hpp"

#include <utility>

namespace realm::traffic {

CoreModel::CoreModel(sim::SimContext& ctx, std::string name, axi::AxiChannel& port,
                     Workload& workload, CoreConfig config)
    : Component{ctx, std::move(name)}, port_{port}, workload_{&workload}, cfg_{config} {
    REALM_EXPECTS(cfg_.bus_bytes >= 1 && cfg_.bus_bytes <= axi::kMaxDataBytes,
                  "illegal core bus width");
    REALM_EXPECTS(cfg_.store_buffer_depth >= 1, "store buffer needs at least one slot");
}

void CoreModel::drain_stores() {
    if (store_buffer_.empty()) { return; }
    PendingStore& ps = store_buffer_.front();
    if (!ps.aw_sent) {
        if (!port_.can_send_aw()) { return; }
        const std::uint32_t beats = (ps.op.bytes + cfg_.bus_bytes - 1) / cfg_.bus_bytes;
        const axi::Addr addr = ps.op.addr & ~axi::Addr{cfg_.bus_bytes - 1};
        port_.send_aw(axi::make_aw(cfg_.write_id, addr, beats,
                                   axi::size_of_bus(cfg_.bus_bytes), ps.issued_at));
        ps.aw_sent = true;
        ps.beats_left = beats;
        return; // AW and first W in distinct cycles keeps the model simple
    }
    if (ps.beats_left > 0 && port_.can_send_w()) {
        axi::WFlit w;
        w.strb = ~axi::Strb{0};
        // Deterministic pattern derived from the address: real data motion
        // is exercised by the DMA; the core's store *values* don't affect
        // timing but must still be well-defined.
        const axi::Addr beat_addr = ps.op.addr + (std::uint64_t{ps.beats_left} - 1) * cfg_.bus_bytes;
        for (std::uint32_t i = 0; i < cfg_.bus_bytes; ++i) {
            w.data.bytes[i] = static_cast<std::uint8_t>((beat_addr >> (i % 8)) & 0xFF);
        }
        --ps.beats_left;
        w.last = ps.beats_left == 0;
        port_.send_w(w);
        if (w.last) {
            stores_awaiting_b_.push_back(ps.issued_at);
            store_buffer_.pop_front();
        }
    }
}

void CoreModel::collect_responses() {
    if (port_.has_b()) {
        port_.recv_b();
        REALM_ENSURES(!stores_awaiting_b_.empty(), name() + ": B with no outstanding store");
        store_lat_.record(now() - stores_awaiting_b_.front());
        stores_awaiting_b_.pop_front();
        ++stores_;
    }
    if (waiting_load_ && port_.has_r()) {
        const axi::RFlit r = port_.recv_r();
        REALM_ENSURES(load_beats_left_ > 0, name() + ": unexpected R beat");
        --load_beats_left_;
        if (r.last) {
            REALM_ENSURES(load_beats_left_ == 0, name() + ": RLAST before final beat");
            load_lat_.record(now() - load_issued_at_);
            waiting_load_ = false;
            ++loads_;
        }
    }
}

void CoreModel::advance_program() {
    if (waiting_load_) {
        ++load_stalls_;
        return; // blocking load in flight
    }
    if (!current_) {
        if (program_done_) { return; }
        current_ = workload_->next();
        if (!current_) {
            program_done_ = true;
            return;
        }
        compute_left_ = current_->compute_cycles;
    }
    if (compute_left_ > 0) {
        --compute_left_;
        ++compute_cycles_;
        return;
    }
    // Issue the operation.
    if (current_->kind == MemOp::Kind::kLoad) {
        if (!port_.can_send_ar()) {
            ++load_stalls_;
            return;
        }
        const std::uint32_t beats = (current_->bytes + cfg_.bus_bytes - 1) / cfg_.bus_bytes;
        const axi::Addr addr = current_->addr & ~axi::Addr{cfg_.bus_bytes - 1};
        port_.send_ar(
            axi::make_ar(cfg_.read_id, addr, beats, axi::size_of_bus(cfg_.bus_bytes), now()));
        waiting_load_ = true;
        load_issued_at_ = now();
        load_beats_left_ = beats;
        current_.reset();
    } else {
        if (store_buffer_.size() >= cfg_.store_buffer_depth) {
            return; // retire stalls until the buffer drains
        }
        PendingStore ps;
        ps.op = *current_;
        ps.issued_at = now();
        store_buffer_.push_back(ps);
        current_.reset();
    }
}

void CoreModel::tick() {
    if (done_) { return; }
    collect_responses();
    drain_stores();
    advance_program();
    if (program_done_ && !waiting_load_ && store_buffer_.empty() && stores_awaiting_b_.empty()) {
        done_ = true;
        finish_cycle_ = now();
        idle_forever(); // every further tick is the no-op early return above
    }
}

} // namespace realm::traffic
