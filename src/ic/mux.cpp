#include "ic/mux.hpp"

#include "sim/check.hpp"

#include <utility>

namespace realm::ic {

AxiMux::AxiMux(sim::SimContext& ctx, std::string name, std::vector<axi::AxiChannel*> upstreams,
               axi::AxiChannel& downstream)
    : Component{ctx, std::move(name)},
      ups_{std::move(upstreams)},
      down_{downstream},
      arb_{*this, static_cast<std::uint32_t>(ups_.size())} {
    REALM_EXPECTS(!ups_.empty(), "mux needs at least one manager");
    for (axi::AxiChannel* ch : ups_) {
        REALM_EXPECTS(ch != nullptr, "null upstream channel");
        ch->wake_subordinate_on_request(*this);
    }
    downstream.wake_manager_on_response(*this);
}

bool AxiMux::route_b() {
    if (!down_.has_b()) { return false; }
    const std::uint32_t mgr = down_.peek_b().id % num_managers();
    if (!ups_[mgr]->b.can_push()) { return true; }
    axi::BFlit f = down_.recv_b();
    f.id /= num_managers();
    ups_[mgr]->b.push(f);
    return false;
}

bool AxiMux::route_r() {
    if (!down_.has_r()) { return false; }
    const std::uint32_t mgr = down_.peek_r().id % num_managers();
    if (!ups_[mgr]->r.can_push()) { return true; }
    axi::RFlit f = down_.recv_r();
    f.id /= num_managers();
    ups_[mgr]->r.push(f);
    return false;
}

void AxiMux::tick() {
    // One subordinate and no ID ordering of its own: every head may win,
    // and a grant needs no bookkeeping beyond the arbiter's.
    const auto any = [](std::uint32_t, const auto&) { return true; };
    const auto none = [](std::uint32_t, const auto&) {};
    arb_.grant_aw(ups_, down_.channel(), any, none);
    arb_.forward_w(ups_, down_.channel(), [](std::uint32_t) { return true; },
                   [](std::uint32_t) {});
    arb_.grant_ar(ups_, down_.channel(), any, none);
    const bool b_held = route_b();
    const bool r_held = route_r();
    if (b_held || r_held) { ++rsp_hold_cycles_; }
    update_activity();
}

void AxiMux::update_activity() {
    // Same reasoning as the crossbar: with no request flit on any upstream
    // and no response on the downstream, every datapath is a no-op. A
    // granted-but-dataless write reservation only progresses on a W push,
    // and a W stall needs another manager's non-empty W link — both wake us
    // via the push hooks.
    for (const axi::AxiChannel* ch : ups_) {
        if (!ch->requests_empty()) { return; }
    }
    if (!down_.channel().responses_empty()) { return; }
    idle_forever();
}

} // namespace realm::ic
