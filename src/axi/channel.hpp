/// \file
/// \brief The five-channel AXI4 wire bundle and directional views.
#pragma once

#include "axi/flit.hpp"

#include "sim/context.hpp"
#include "sim/link.hpp"

#include <string>

namespace realm::axi {

/// One manager <-> subordinate AXI4 connection: five registered links.
/// Request channels (AW/W/AR) flow manager -> subordinate; response channels
/// (B/R) flow subordinate -> manager. Each link is a depth-2 spill register,
/// so one hop costs one cycle and sustains one beat per cycle per channel.
class AxiChannel {
public:
    /// \param resp_passthrough  When true, the response channels (B/R) are
    ///        combinational (zero-cycle) wires; the consumer component must
    ///        be constructed *after* the producer. Used by the REALM unit so
    ///        it adds exactly one cycle of request latency and none on the
    ///        response path, as the paper specifies.
    explicit AxiChannel(const sim::SimContext& ctx, std::string name = "axi",
                        std::size_t depth = 2, bool resp_passthrough = false)
        : aw{ctx, depth, name + ".aw"},
          w{ctx, depth, name + ".w"},
          b{ctx, depth, name + ".b",
            resp_passthrough ? sim::Link<BFlit>::Timing::kPassthrough
                             : sim::Link<BFlit>::Timing::kRegistered},
          ar{ctx, depth, name + ".ar"},
          r{ctx, depth, name + ".r",
            resp_passthrough ? sim::Link<RFlit>::Timing::kPassthrough
                             : sim::Link<RFlit>::Timing::kRegistered},
          name_{std::move(name)} {}

    AxiChannel(const AxiChannel&) = delete;
    AxiChannel& operator=(const AxiChannel&) = delete;

    sim::Link<AwFlit> aw;
    sim::Link<WFlit> w;
    sim::Link<BFlit> b;
    sim::Link<ArFlit> ar;
    sim::Link<RFlit> r;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// True when no flit is buffered on any channel.
    [[nodiscard]] bool idle() const noexcept {
        return aw.empty() && w.empty() && b.empty() && ar.empty() && r.empty();
    }

    /// True when no request flit (AW/W/AR) is buffered.
    [[nodiscard]] bool requests_empty() const noexcept {
        return aw.empty() && w.empty() && ar.empty();
    }

    /// True when no response flit (B/R) is buffered.
    [[nodiscard]] bool responses_empty() const noexcept {
        return b.empty() && r.empty();
    }

    /// \name Scheduler wake-up wiring (activity-aware kernel)
    ///@{
    /// Wakes `sub` whenever a request flit (AW/W/AR) is pushed; call from
    /// the subordinate-side component if it idles on an empty channel.
    void wake_subordinate_on_request(sim::Component& sub) noexcept {
        aw.set_wake_on_push(&sub);
        w.set_wake_on_push(&sub);
        ar.set_wake_on_push(&sub);
    }
    /// Wakes `mgr` whenever a response flit (B/R) is pushed.
    void wake_manager_on_response(sim::Component& mgr) noexcept {
        b.set_wake_on_push(&mgr);
        r.set_wake_on_push(&mgr);
    }
    ///@}

private:
    std::string name_;
};

/// Manager-side accessors: push requests, pop responses.
class ManagerView {
public:
    explicit ManagerView(AxiChannel& ch) noexcept : ch_{&ch} {}

    [[nodiscard]] bool can_send_aw() const noexcept { return ch_->aw.can_push(); }
    void send_aw(AwFlit f) { ch_->aw.push(f); }
    [[nodiscard]] bool can_send_w() const noexcept { return ch_->w.can_push(); }
    void send_w(WFlit f) { ch_->w.push(f); }
    [[nodiscard]] bool can_send_ar() const noexcept { return ch_->ar.can_push(); }
    void send_ar(ArFlit f) { ch_->ar.push(f); }

    [[nodiscard]] bool has_b() const noexcept { return ch_->b.can_pop(); }
    [[nodiscard]] const BFlit& peek_b() const { return ch_->b.front(); }
    BFlit recv_b() { return ch_->b.pop(); }
    [[nodiscard]] bool has_r() const noexcept { return ch_->r.can_pop(); }
    [[nodiscard]] const RFlit& peek_r() const { return ch_->r.front(); }
    RFlit recv_r() { return ch_->r.pop(); }

    [[nodiscard]] AxiChannel& channel() noexcept { return *ch_; }

private:
    AxiChannel* ch_;
};

/// Subordinate-side accessors: pop requests, push responses.
class SubordinateView {
public:
    explicit SubordinateView(AxiChannel& ch) noexcept : ch_{&ch} {}

    [[nodiscard]] bool has_aw() const noexcept { return ch_->aw.can_pop(); }
    AwFlit recv_aw() { return ch_->aw.pop(); }
    [[nodiscard]] bool has_w() const noexcept { return ch_->w.can_pop(); }
    WFlit recv_w() { return ch_->w.pop(); }
    [[nodiscard]] bool has_ar() const noexcept { return ch_->ar.can_pop(); }
    ArFlit recv_ar() { return ch_->ar.pop(); }

    [[nodiscard]] bool can_send_b() const noexcept { return ch_->b.can_push(); }
    void send_b(BFlit f) { ch_->b.push(f); }
    [[nodiscard]] bool can_send_r() const noexcept { return ch_->r.can_push(); }
    void send_r(RFlit f) { ch_->r.push(f); }

    [[nodiscard]] AxiChannel& channel() noexcept { return *ch_; }

private:
    AxiChannel* ch_;
};

} // namespace realm::axi
