#include "axi/checker.hpp"

#include "sim/check.hpp"

namespace realm::axi {

AxiChecker::AxiChecker(sim::SimContext& ctx, std::string name, AxiChannel& upstream,
                       AxiChannel& downstream, bool throw_on_violation)
    : Component{ctx, std::move(name)},
      up_{upstream},
      down_{downstream},
      throw_on_violation_{throw_on_violation} {
    upstream.wake_subordinate_on_request(*this);
    downstream.wake_manager_on_response(*this);
}

void AxiChecker::violation(const std::string& message) {
    violations_.push_back('[' + std::to_string(now()) + "] " + name() + ": " + message);
    if (throw_on_violation_) {
        REALM_ENSURES(false, violations_.back());
    }
}

void AxiChecker::check_aw(const AwFlit& f) {
    if (!is_legal(f.descriptor())) {
        violation("illegal AW burst: addr=" + std::to_string(f.addr) +
                  " len=" + std::to_string(int{f.len}) + " burst=" + to_string(f.burst));
    }
    w_queue_.push_back(PendingWrite{f.id, f.beats(), 0});
}

void AxiChecker::check_w(const WFlit& f) {
    if (w_queue_.empty()) {
        violation("W beat without a preceding AW");
        return;
    }
    PendingWrite& pw = w_queue_.front();
    ++pw.beats_seen;
    const bool is_final = pw.beats_seen == pw.beats_total;
    if (f.last != is_final) {
        violation("WLAST mismatch: beat " + std::to_string(pw.beats_seen) + "/" +
                  std::to_string(pw.beats_total) + " last=" + (f.last ? "1" : "0"));
    }
    if (is_final) {
        ++awaiting_b_[pw.id];
        w_queue_.pop_front();
    }
}

void AxiChecker::check_b(const BFlit& f) {
    auto it = awaiting_b_.find(f.id);
    if (it == awaiting_b_.end() || it->second == 0) {
        violation("B for ID " + std::to_string(f.id) + " with no completed write burst");
        return;
    }
    --it->second;
    ++completed_writes_;
}

void AxiChecker::check_ar(const ArFlit& f) {
    if (!is_legal(f.descriptor())) {
        violation("illegal AR burst: addr=" + std::to_string(f.addr) +
                  " len=" + std::to_string(int{f.len}) + " burst=" + to_string(f.burst));
    }
    r_remaining_[f.id].push_back(f.beats());
}

void AxiChecker::check_r(const RFlit& f) {
    auto it = r_remaining_.find(f.id);
    if (it == r_remaining_.end() || it->second.empty()) {
        violation("R beat for ID " + std::to_string(f.id) + " with no outstanding AR");
        return;
    }
    std::uint32_t& remaining = it->second.front();
    REALM_ENSURES(remaining > 0, "checker internal: zero remaining R beats");
    --remaining;
    const bool is_final = remaining == 0;
    if (f.last != is_final) {
        violation("RLAST mismatch for ID " + std::to_string(f.id));
    }
    if (is_final) {
        it->second.pop_front();
        ++completed_reads_;
    }
}

void AxiChecker::tick() {
    // Requests: upstream -> downstream. AW before W so the bookkeeping sees
    // the address before its data (producers in this repo follow the same
    // convention).
    if (up_.has_aw() && down_.can_send_aw()) {
        AwFlit f = up_.recv_aw();
        check_aw(f);
        down_.send_aw(f);
    }
    if (up_.has_w() && down_.can_send_w()) {
        WFlit f = up_.recv_w();
        check_w(f);
        down_.send_w(f);
    }
    if (up_.has_ar() && down_.can_send_ar()) {
        ArFlit f = up_.recv_ar();
        check_ar(f);
        down_.send_ar(f);
    }
    // Responses: downstream -> upstream.
    if (down_.channel().b.can_pop() && up_.channel().b.can_push()) {
        BFlit f = down_.channel().b.pop();
        check_b(f);
        up_.channel().b.push(f);
    }
    if (down_.channel().r.can_pop() && up_.channel().r.can_push()) {
        RFlit f = down_.channel().r.pop();
        check_r(f);
        up_.channel().r.push(f);
    }
    update_activity();
}

void AxiChecker::update_activity() {
    // Conservative idle contract: the checker's bookkeeping (w_queue_,
    // awaiting_b_, r_remaining_) only advances on flits, and every flit it
    // consumes arrives through the wake-wired channels. A held flit
    // (downstream backpressure) forbids sleeping — draining raises no wake.
    if (!up_.channel().requests_empty()) { return; }
    if (!down_.channel().responses_empty()) { return; }
    idle_forever();
}

} // namespace realm::axi
