#include "mon/txn_monitor.hpp"

#include "sim/check.hpp"

#include <algorithm>
#include <utility>

namespace realm::mon {

TxnMonitor::TxnMonitor(sim::SimContext& ctx, std::string name, axi::AxiChannel& upstream,
                       axi::AxiChannel& downstream, TxnMonitorConfig config)
    : Component{ctx, std::move(name)}, up_{upstream}, down_{downstream}, cfg_{config} {
    REALM_EXPECTS(cfg_.timeout_cycles > 0, "monitor timeout must be positive");
    REALM_EXPECTS(cfg_.stall_cycles > 0, "monitor stall threshold must be positive");
    REALM_EXPECTS(cfg_.window_cycles > 0, "monitor window must be positive");
    upstream.wake_subordinate_on_request(*this);
    downstream.wake_manager_on_response(*this);
    attach_cycle_ = now();
    window_start_ = now();
    last_w_cycle_ = now();
    occ_last_cycle_ = now();
}

void TxnMonitor::tick() {
    roll_windows();
    forward_flits();
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

void TxnMonitor::forward_flits() {
    if (up_.has_aw() && down_.can_send_aw()) {
        axi::AwFlit f = up_.recv_aw();
        accrue_occupancy(now());
        ++occ_count_;
        open_fifo(write_open_, f.id).push_back({now(), false});
        next_timeout_deadline_ = std::min(next_timeout_deadline_, now() + cfg_.timeout_cycles);
        if (w_bursts_.empty()) {
            last_w_cycle_ = now(); // the burst's W clock starts at AW accept
            w_gap_flagged_ = false;
        }
        w_bursts_.push_back({f.beats(), f.descriptor().beat_bytes()});
        ++aw_count_;
        down_.send_aw(f);
    }
    if (up_.has_w() && down_.can_send_w()) {
        axi::WFlit f = up_.recv_w();
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
        down_.send_w(f);
    }
    if (up_.has_ar() && down_.can_send_ar()) {
        axi::ArFlit f = up_.recv_ar();
        accrue_occupancy(now());
        ++occ_count_;
        open_fifo(read_open_, f.id).push_back({now(), false});
        next_timeout_deadline_ = std::min(next_timeout_deadline_, now() + cfg_.timeout_cycles);
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
        down_.send_ar(f);
    }
    if (down_.channel().b.can_pop() && up_.channel().b.can_push()) {
        axi::BFlit f = down_.channel().b.pop();
        std::deque<Outstanding>* fifo = find_fifo(write_open_, f.id);
        if (fifo != nullptr && !fifo->empty()) {
            write_sketch_.record(now() - fifo->front().issued);
            fifo->pop_front();
        } else {
            ++orphan_responses_; // B with no matching outstanding AW
        }
        up_.channel().b.push(f);
    }
    if (down_.channel().r.can_pop() && up_.channel().r.can_push()) {
        axi::RFlit f = down_.channel().r.pop();
        std::uint32_t beat_bytes = axi::kMaxDataBytes;
        for (const auto& [id, bytes] : r_bytes_per_beat_) {
            if (id == f.id) {
                beat_bytes = bytes;
                break;
            }
        }
        bytes_read_ += beat_bytes;
        window_bytes_ += beat_bytes;
        if (f.last) {
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
        up_.channel().r.push(f);
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
    if (up_.has_w()) { return; }         // data queued at the boundary: not a gap
    if (!down_.can_send_w()) { return; } // fabric would not accept a beat anyway
    const sim::Cycle deadline = last_w_cycle_ + cfg_.stall_cycles;
    if (now() >= deadline) {
        ++w_gap_events_;
        w_gap_flagged_ = true; // once per gap; the next W beat re-arms
        flag(kSignalWGap, deadline);
    }
}

void TxnMonitor::account_held() {
    const bool held[3] = {
        up_.has_aw() && !down_.can_send_aw(),
        up_.has_w() && !down_.can_send_w(),
        up_.has_ar() && !down_.can_send_ar(),
    };
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
    if (any) {
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
    // roll_windows() runs first in tick(), so an unclosed window boundary is
    // always past the previous tick's events.
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
    // Like the tracer: never sleep while a flit is buffered in the hop
    // (downstream backpressure clears without a wake hook), and rely on the
    // push hooks for new work. Beyond that, the monitor has deadline-driven
    // work of its own -- pending timeout checks and an open W-production gap
    // -- so it sleeps *until* the earliest deadline instead of forever.
    // Window closes need no deadline: they are evaluated lazily and dated
    // deterministically at the window boundary.
    if (!up_.channel().requests_empty()) { return; }
    if (!down_.channel().responses_empty()) { return; }
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
