#include "mon/txn_monitor.hpp"

#include "sim/check.hpp"

#include <algorithm>
#include <utility>

namespace realm::mon {

TxnMonitor::TxnMonitor(sim::SimContext& ctx, std::string name, axi::AxiChannel& port,
                       TxnMonitorConfig config)
    : Component{ctx, std::move(name)}, port_{&port}, cfg_{config} {
    REALM_EXPECTS(cfg_.timeout_cycles > 0, "monitor timeout must be positive");
    REALM_EXPECTS(cfg_.stall_cycles > 0, "monitor stall threshold must be positive");
    REALM_EXPECTS(cfg_.window_cycles > 0, "monitor window must be positive");
    tap<axi::AwFlit, &TxnMonitor::on_aw>(port.aw);
    tap<axi::WFlit, &TxnMonitor::on_w>(port.w);
    tap<axi::ArFlit, &TxnMonitor::on_ar>(port.ar);
    tap<axi::BFlit, &TxnMonitor::on_b>(port.b);
    tap<axi::RFlit, &TxnMonitor::on_r>(port.r);
    attach_cycle_ = now();
    window_start_ = now();
    last_w_cycle_ = now();
    occ_last_cycle_ = now();
}

void TxnMonitor::tick() {
    roll_windows();
    check_timeouts();
    check_w_gap();
    account_held();
    update_activity();
}

std::deque<TxnMonitor::Outstanding>& TxnMonitor::open_fifo(std::vector<OpenQueue>& open,
                                                           axi::IdT id) {
    for (OpenQueue& q : open) {
        if (q.id == id) { return q.fifo; }
    }
    open.push_back({id, {}});
    return open.back().fifo;
}

std::deque<TxnMonitor::Outstanding>* TxnMonitor::find_fifo(std::vector<OpenQueue>& open,
                                                           axi::IdT id) {
    for (OpenQueue& q : open) {
        if (q.id == id) { return &q.fifo; }
    }
    return nullptr;
}

// The observers run inside the producer's tick, possibly while this
// component sleeps, so each rolls the windows up to `now()` before it
// touches a windowed counter.

void TxnMonitor::open_burst(std::vector<OpenQueue>& open, axi::IdT id) {
    roll_windows();
    accrue_occupancy(now());
    ++occ_count_;
    open_fifo(open, id).push_back({now(), false});
    next_timeout_deadline_ = std::min(next_timeout_deadline_, now() + cfg_.timeout_cycles);
    // The request link is registered: the consumer sees the flit next
    // cycle, which is when it can first be held.
    wake(now() + 1);
}

void TxnMonitor::on_aw(const axi::AwFlit& f) {
    open_burst(write_open_, f.id);
    if (w_bursts_.empty()) {
        last_w_cycle_ = now(); // the burst's W clock starts at AW issue
        w_gap_flagged_ = false;
    }
    w_bursts_.push_back({f.beats(), f.descriptor().beat_bytes()});
    ++aw_count_;
}

void TxnMonitor::on_w(const axi::WFlit& /*f*/) {
    roll_windows();
    std::uint32_t beat_bytes = axi::kMaxDataBytes;
    if (!w_bursts_.empty()) {
        WBurst& burst = w_bursts_.front();
        beat_bytes = burst.beat_bytes;
        last_w_cycle_ = now();
        w_gap_flagged_ = false;
        if (--burst.beats_left == 0) {
            w_bursts_.pop_front();
            // A write stops counting toward occupancy at W-last:
            // occupancy measures *demand* (request/data phase), and a
            // victim queueing on late B responses behind someone else's
            // attack must not inherit the attacker's signature.
            accrue_occupancy(now());
            --occ_count_;
        }
    }
    bytes_written_ += beat_bytes;
    window_bytes_ += beat_bytes;
    wake(now() + 1);
}

void TxnMonitor::on_ar(const axi::ArFlit& f) {
    open_burst(read_open_, f.id);
    const std::uint32_t beat_bytes = f.descriptor().beat_bytes();
    bool known = false;
    for (auto& [id, bytes] : r_bytes_per_beat_) {
        if (id == f.id) {
            bytes = beat_bytes;
            known = true;
            break;
        }
    }
    if (!known) { r_bytes_per_beat_.emplace_back(f.id, beat_bytes); }
    ++ar_count_;
}

void TxnMonitor::on_b(const axi::BFlit& f) {
    std::deque<Outstanding>* fifo = find_fifo(write_open_, f.id);
    if (fifo != nullptr && !fifo->empty()) {
        write_sketch_.record(now() - fifo->front().issued);
        fifo->pop_front();
    } else {
        ++orphan_responses_; // B with no matching outstanding AW
    }
}

void TxnMonitor::on_r(const axi::RFlit& f) {
    roll_windows();
    std::uint32_t beat_bytes = axi::kMaxDataBytes;
    for (const auto& [id, bytes] : r_bytes_per_beat_) {
        if (id == f.id) {
            beat_bytes = bytes;
            break;
        }
    }
    bytes_read_ += beat_bytes;
    window_bytes_ += beat_bytes;
    if (!f.last) { return; }
    std::deque<Outstanding>* fifo = find_fifo(read_open_, f.id);
    if (fifo != nullptr && !fifo->empty()) {
        read_sketch_.record(now() - fifo->front().issued);
        fifo->pop_front();
        accrue_occupancy(now());
        --occ_count_;
    } else {
        ++orphan_responses_; // R-last with no matching outstanding AR
    }
}

void TxnMonitor::check_timeouts() {
    if (now() < next_timeout_deadline_) { return; }
    next_timeout_deadline_ = sim::kNoCycle;
    for (auto* open : {&write_open_, &read_open_}) {
        for (OpenQueue& queue : *open) {
            for (Outstanding& txn : queue.fifo) {
                if (txn.timed_out) { continue; }
                const sim::Cycle deadline = txn.issued + cfg_.timeout_cycles;
                if (now() >= deadline) {
                    txn.timed_out = true; // flagged once; completion still records latency
                    ++timeouts_;
                } else {
                    next_timeout_deadline_ = std::min(next_timeout_deadline_, deadline);
                }
            }
        }
    }
}

void TxnMonitor::check_w_gap() {
    if (w_bursts_.empty() || w_gap_flagged_) { return; }
    if (!port_->w.empty()) { return; } // a beat waits in the port: produced, not a gap
    const sim::Cycle deadline = last_w_cycle_ + cfg_.stall_cycles;
    if (now() >= deadline) {
        ++w_gap_events_;
        w_gap_flagged_ = true; // once per gap; the next W beat re-arms
        flag(kSignalWGap, deadline);
    }
}

void TxnMonitor::account_held() {
    // Valid and not ready: a request the port's consumer could see this
    // cycle and, having ticked already, left in place.
    const bool held[3] = {port_->aw.can_pop(), port_->w.can_pop(), port_->ar.can_pop()};
    bool any = false;
    for (int i = 0; i < 3; ++i) {
        if (held[i]) {
            any = true;
            if (held_streak_start_[i] == sim::kNoCycle) {
                held_streak_start_[i] = now();
                held_streak_reported_[i] = false;
            }
            if (!held_streak_reported_[i] &&
                now() - held_streak_start_[i] + 1 >= cfg_.stall_cycles) {
                ++stall_events_; // one event per streak crossing the threshold
                held_streak_reported_[i] = true;
            }
        } else {
            held_streak_start_[i] = sim::kNoCycle;
            held_streak_reported_[i] = false;
        }
    }
    // A blocking core with one burst held is waiting on the fabric; only a
    // manager with two or more bursts in demand is pushing past it.
    if (any && occ_count_ >= 2) {
        ++held_cycles_;
        ++window_held_;
    }
}

void TxnMonitor::roll_windows() {
    while (now() >= window_start_ + cfg_.window_cycles) {
        close_window(window_start_ + cfg_.window_cycles);
    }
}

void TxnMonitor::accrue_occupancy(sim::Cycle to) {
    // `to` never precedes the last accrual: events accrue at now(), and
    // roll_windows() runs first in tick() and in every observer that accrues,
    // so an unclosed window boundary is always past the previous events.
    window_occ_ += occ_count_ * (to - occ_last_cycle_);
    occ_last_cycle_ = to;
}

void TxnMonitor::close_window(sim::Cycle end_cycle) {
    accrue_occupancy(end_cycle);
    const double window = static_cast<double>(cfg_.window_cycles);
    if (static_cast<double>(window_bytes_) >= cfg_.bw_threshold * window) {
        flag(kSignalBandwidth, end_cycle);
    }
    if (static_cast<double>(window_held_) >= cfg_.held_threshold * window) {
        flag(kSignalBackpressure, end_cycle);
    }
    if (static_cast<double>(window_occ_) >= cfg_.occ_threshold * window) {
        flag(kSignalOccupancy, end_cycle);
    }
    window_bytes_ = 0;
    window_held_ = 0;
    occ_integral_total_ += window_occ_;
    window_occ_ = 0;
    window_start_ = end_cycle;
}

void TxnMonitor::flag(std::uint8_t signal, sim::Cycle at) {
    signals_ |= signal;
    if (first_detect_ == sim::kNoCycle || at < first_detect_) { first_detect_ = at; }
}

void TxnMonitor::finalize() {
    if (finalized_) { return; }
    finalized_ = true;
    roll_windows();
    // Trailing partial window: evaluate against the full-window thresholds
    // (conservative -- a partial window must already exceed the full budget).
    close_window(now());
    for (const auto* open : {&write_open_, &read_open_}) {
        for (const OpenQueue& queue : *open) { orphan_requests_ += queue.fifo.size(); }
    }
    const sim::Cycle active = now() > attach_cycle_ ? now() - attach_cycle_ : 1;
    occ_avg_milli_ = occ_integral_total_ * 1000 / active;
}

void TxnMonitor::update_activity() {
    // Never sleep while a request sits in the port: it may be held next
    // cycle, and its acceptance wakes nobody. The request observers wake
    // the monitor for the next one. Beyond that, the monitor has
    // deadline-driven work of its own -- pending timeout checks and an open
    // W-production gap -- so it sleeps *until* the earliest deadline
    // instead of forever. Window closes need no deadline: they are
    // evaluated lazily and dated deterministically at the window boundary.
    if (!port_->requests_empty()) { return; }
    sim::Cycle wake = sim::kNoCycle;
    if (!w_bursts_.empty() && !w_gap_flagged_) {
        wake = std::min(wake, last_w_cycle_ + cfg_.stall_cycles);
    }
    wake = std::min(wake, next_timeout_deadline_);
    if (wake == sim::kNoCycle) {
        idle_forever();
    } else {
        idle_until(std::max(wake, now() + 1));
    }
}

} // namespace realm::mon
