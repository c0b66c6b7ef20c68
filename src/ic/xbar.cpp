#include "ic/xbar.hpp"

#include "sim/check.hpp"

#include <utility>

namespace realm::ic {

AxiXbar::AxiXbar(sim::SimContext& ctx, std::string name, std::vector<axi::AxiChannel*> managers,
                 std::vector<axi::AxiChannel*> subordinates, AddrMap map, XbarConfig config)
    : Component{ctx, std::move(name)},
      mgrs_{std::move(managers)},
      subs_{std::move(subordinates)},
      map_{std::move(map)},
      config_{config},
      arbs_(subs_.size(), BurstArbiter{*this, static_cast<std::uint32_t>(mgrs_.size())}),
      w_route_(mgrs_.size()),
      b_arb_(mgrs_.size(), RoundRobinArbiter{static_cast<std::uint32_t>(subs_.size())}),
      r_arb_(mgrs_.size(), RoundRobinArbiter{static_cast<std::uint32_t>(subs_.size())}) {
    REALM_EXPECTS(!mgrs_.empty() && !subs_.empty(), "xbar needs managers and subordinates");
    for (axi::AxiChannel* ch : mgrs_) { REALM_EXPECTS(ch != nullptr, "null manager channel"); }
    for (axi::AxiChannel* ch : subs_) { REALM_EXPECTS(ch != nullptr, "null subordinate"); }
    for (axi::AxiChannel* ch : mgrs_) { ch->wake_subordinate_on_request(*this); }
    for (axi::AxiChannel* ch : subs_) { ch->wake_manager_on_response(*this); }
    if (config_.default_port) {
        REALM_EXPECTS(*config_.default_port < subs_.size(), "default port out of range");
    }
}

std::uint32_t AxiXbar::route(axi::Addr addr) {
    if (const auto port = map_.decode(addr)) { return *port; }
    REALM_EXPECTS(config_.default_port.has_value(),
                  name() + ": unmapped address with no default port");
    return *config_.default_port;
}

bool AxiXbar::in_order(const InFlightMap& in_flight, std::uint32_t mgr, axi::IdT id,
                       std::uint32_t sub) {
    const auto it = in_flight.find(order_key(mgr, id));
    if (it != in_flight.end() && it->second.count > 0 && it->second.port != sub) {
        ++ordering_stalls_;
        return false;
    }
    return true;
}

void AxiXbar::issued(InFlightMap& in_flight, std::uint32_t mgr, axi::Addr addr, axi::IdT id,
                     std::uint32_t sub) {
    if (!map_.decode(addr)) { ++decode_errors_; }
    InFlight& fl = in_flight[order_key(mgr, id)];
    fl.port = sub;
    ++fl.count;
}

void AxiXbar::retired(InFlightMap& in_flight, std::uint32_t mgr, axi::IdT id) {
    if (auto it = in_flight.find(order_key(mgr, id));
        it != in_flight.end() && it->second.count > 0) {
        --it->second.count;
    }
}

void AxiXbar::arbitrate_aw(std::uint32_t sub) {
    if (arbs_[sub].writes_granted() >= config_.max_outstanding_writes_per_sub) { return; }
    arbs_[sub].grant_aw(
        mgrs_, *subs_[sub],
        [this, sub](std::uint32_t m, const axi::AwFlit& head) {
            return route(head.addr) == sub && in_order(w_in_flight_, m, head.id, sub);
        },
        [this, sub](std::uint32_t m, const axi::AwFlit& f) {
            issued(w_in_flight_, m, f.addr, f.id, sub);
            w_route_[m].push_back(sub);
        });
}

void AxiXbar::forward_w(std::uint32_t sub) {
    // The granted manager must currently be sending *this* burst: its own W
    // stream is in AW order across all subordinates.
    arbs_[sub].forward_w(
        mgrs_, *subs_[sub],
        [this, sub](std::uint32_t m) {
            return !w_route_[m].empty() && w_route_[m].front() == sub;
        },
        [this](std::uint32_t m) { w_route_[m].pop_front(); });
}

void AxiXbar::arbitrate_ar(std::uint32_t sub) {
    arbs_[sub].grant_ar(
        mgrs_, *subs_[sub],
        [this, sub](std::uint32_t m, const axi::ArFlit& head) {
            return route(head.addr) == sub && in_order(r_in_flight_, m, head.id, sub);
        },
        [this, sub](std::uint32_t m, const axi::ArFlit& f) {
            issued(r_in_flight_, m, f.addr, f.id, sub);
        });
}

void AxiXbar::route_b(std::uint32_t mgr) {
    if (!mgrs_[mgr]->b.can_push()) { return; }
    const int winner = b_arb_[mgr].pick([this, mgr](std::uint32_t s) {
        return subs_[s]->b.can_pop() && subs_[s]->b.front().id % num_managers() == mgr;
    });
    if (winner < 0) { return; }
    const auto sub = static_cast<std::uint32_t>(winner);
    b_arb_[mgr].commit(sub);
    axi::BFlit f = subs_[sub]->b.pop();
    f.id /= num_managers();
    retired(w_in_flight_, mgr, f.id);
    mgrs_[mgr]->b.push(f);
}

void AxiXbar::route_r(std::uint32_t mgr) {
    if (!mgrs_[mgr]->r.can_push()) { return; }
    const int winner = r_arb_[mgr].pick([this, mgr](std::uint32_t s) {
        return subs_[s]->r.can_pop() && subs_[s]->r.front().id % num_managers() == mgr;
    });
    if (winner < 0) { return; }
    const auto sub = static_cast<std::uint32_t>(winner);
    r_arb_[mgr].commit(sub);
    axi::RFlit f = subs_[sub]->r.pop();
    f.id /= num_managers();
    if (f.last) { retired(r_in_flight_, mgr, f.id); }
    mgrs_[mgr]->r.push(f);
}

void AxiXbar::tick() {
    for (std::uint32_t s = 0; s < num_subordinates(); ++s) {
        arbitrate_aw(s);
        forward_w(s);
        arbitrate_ar(s);
    }
    for (std::uint32_t m = 0; m < num_managers(); ++m) {
        route_b(m);
        route_r(m);
    }
    update_activity();
}

void AxiXbar::update_activity() {
    // The crossbar is a pure shuttle: with no request flit on any manager
    // port and no response flit on any subordinate port, every datapath is
    // provably a no-op (granted-but-dataless write reservations included —
    // they progress only on W pushes, and a W stall needs another manager's
    // non-empty W link).
    for (const axi::AxiChannel* ch : mgrs_) {
        if (!ch->requests_empty()) { return; }
    }
    for (const axi::AxiChannel* ch : subs_) {
        if (!ch->responses_empty()) { return; }
    }
    idle_forever();
}

} // namespace realm::ic
