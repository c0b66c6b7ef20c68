/// \file
/// \brief One subordinate port's burst arbitration, and the N-manager to
///        1-subordinate AXI multiplexer built on it.
///
/// Faithfully reproduces the two properties of burst-based interconnects the
/// paper builds on:
///  - arbitration is round-robin at **burst granularity**: long bursts delay
///    fine-granular competitors by up to their full length;
///  - the subordinate's W channel is **reserved at AW-grant time**: a manager
///    that wins write arbitration and then withholds data stalls every other
///    write — the denial-of-service vector the REALM write buffer closes.
#pragma once

#include "axi/channel.hpp"
#include "ic/arb.hpp"

#include "sim/check.hpp"
#include "sim/component.hpp"

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace realm::ic {

/// The arbitration of one subordinate port over N upstream managers: the AW
/// and AR round-robins, the granted-write queue that reserves the W channel,
/// ID widening and the W-stall counter. `AxiMux` owns one,
/// `AxiXbar` one per subordinate; both call the three steps below from
/// their tick. IDs leave widened as `id * N + manager` so response routing
/// is stateless and collision-free.
class BurstArbiter {
public:
    /// `owner` is the component ticking this arbiter; contract messages
    /// name it.
    BurstArbiter(const sim::Component& owner, std::uint32_t num_managers)
        : owner_{&owner}, aw_rr_{num_managers}, ar_rr_{num_managers} {}

    /// Grants one AW burst to `down`: the first manager after the last
    /// winner whose head passes `eligible(m, head)`. `on_grant(m, flit)`
    /// sees the granted flit before its ID is widened. The W channel is
    /// reserved for the whole burst at this point.
    template <typename Eligible, typename OnGrant>
    void grant_aw(const std::vector<axi::AxiChannel*>& ups, axi::AxiChannel& down,
                  Eligible&& eligible, OnGrant&& on_grant) {
        grant(&axi::AxiChannel::aw, aw_rr_, ups, down, eligible,
              [&](std::uint32_t m, const axi::AwFlit& f) {
                  // Reserve the downstream W channel for this burst *now* —
                  // before any data exists. This is the behaviour [14]
                  // identifies as the DoS vector.
                  w_order_.push_back(WGrant{m, f.beats()});
                  on_grant(m, f);
              });
    }

    /// Grants one AR burst to `down`, as `grant_aw` does for writes.
    template <typename Eligible, typename OnGrant>
    void grant_ar(const std::vector<axi::AxiChannel*>& ups, axi::AxiChannel& down,
                  Eligible&& eligible, OnGrant&& on_grant) {
        grant(&axi::AxiChannel::ar, ar_rr_, ups, down, eligible, on_grant);
    }

    /// Forwards one W beat of the oldest granted burst, from its manager if
    /// `sending_here(m)` says that manager's W stream is at this burst.
    /// `on_last(m)` runs when the burst's last beat has passed. While the
    /// owner withholds data and another manager has a beat ready, the
    /// cycle counts as a W stall.
    template <typename SendingHere, typename OnLast>
    void forward_w(const std::vector<axi::AxiChannel*>& ups, axi::AxiChannel& down,
                   SendingHere&& sending_here, OnLast&& on_last) {
        if (w_order_.empty() || !down.w.can_push()) { return; }
        WGrant& grant = w_order_.front();
        const std::uint32_t mgr = grant.mgr;
        if (!ups[mgr]->w.can_pop() || !sending_here(mgr)) {
            // The granted manager withholds data: the W channel idles even
            // if other managers have beats ready (bandwidth stolen by the
            // reservation).
            for (std::uint32_t m = 0; m < ups.size(); ++m) {
                if (m != mgr && ups[m]->w.can_pop()) {
                    ++w_stall_cycles_;
                    break;
                }
            }
            return;
        }
        const axi::WFlit f = ups[mgr]->w.pop();
        down.w.push(f);
        --grant.beats_left;
        if (grant.beats_left == 0) {
            REALM_ENSURES(f.last, owner_->name() + ": W burst finished without WLAST");
            w_order_.pop_front();
            on_last(mgr);
        } else {
            REALM_ENSURES(!f.last, owner_->name() + ": premature WLAST");
        }
    }

    /// Write bursts granted whose last W beat has not yet passed.
    [[nodiscard]] std::size_t writes_granted() const noexcept { return w_order_.size(); }
    /// Cycles the W channel spent stalled waiting for a granted manager's
    /// data while other writes were pending (DoS exposure metric).
    [[nodiscard]] std::uint64_t w_stall_cycles() const noexcept { return w_stall_cycles_; }

private:
    struct WGrant {
        std::uint32_t mgr = 0;
        std::uint32_t beats_left = 0;
    };

    /// The burst round-robin grant on one request channel (`lane`).
    template <typename Flit, typename Eligible, typename OnGrant>
    void grant(sim::Link<Flit> axi::AxiChannel::*lane, RoundRobinArbiter& rr,
               const std::vector<axi::AxiChannel*>& ups, axi::AxiChannel& down,
               Eligible& eligible, OnGrant&& on_grant) {
        if (!(down.*lane).can_push()) { return; }
        const int winner = rr.pick([&](std::uint32_t m) {
            const sim::Link<Flit>& in = ups[m]->*lane;
            return in.can_pop() && eligible(m, in.front());
        });
        if (winner < 0) { return; }
        const auto mgr = static_cast<std::uint32_t>(winner);
        rr.commit(mgr);
        Flit f = (ups[mgr]->*lane).pop();
        on_grant(mgr, std::as_const(f));
        f.id = f.id * rr.size() + mgr;
        (down.*lane).push(f);
    }

    const sim::Component* owner_;
    RoundRobinArbiter aw_rr_;
    RoundRobinArbiter ar_rr_;
    std::deque<WGrant> w_order_; ///< granted writes, in W-channel order
    std::uint64_t w_stall_cycles_ = 0;
};

class AxiMux : public sim::Component {
public:
    /// N is the number of upstream ports: on the NoC fabrics, the managers
    /// present (one egress lane each, in ascending node order), not every
    /// node.
    AxiMux(sim::SimContext& ctx, std::string name,
           std::vector<axi::AxiChannel*> upstreams, axi::AxiChannel& downstream);

    void tick() override;

    [[nodiscard]] std::uint32_t num_managers() const noexcept {
        return static_cast<std::uint32_t>(ups_.size());
    }
    [[nodiscard]] std::uint64_t w_stall_cycles() const noexcept { return arb_.w_stall_cycles(); }
    /// Cycles the subordinate's B or R head waited for its manager's full
    /// upstream channel: the subordinate's one response output was then
    /// held for every manager (head-of-line blocking).
    [[nodiscard]] std::uint64_t rsp_hold_cycles() const noexcept { return rsp_hold_cycles_; }

private:
    /// Each routes one response upstream; true when the head stayed, held
    /// by its manager's full channel.
    bool route_b();
    bool route_r();
    void update_activity();

    std::vector<axi::AxiChannel*> ups_;
    axi::ManagerView down_;
    BurstArbiter arb_;
    std::uint64_t rsp_hold_cycles_ = 0;
};

} // namespace realm::ic
