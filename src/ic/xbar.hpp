/// \file
/// \brief Full AXI4 crossbar: M managers x S subordinates.
///
/// Modeled after burst-based open-source crossbars (e.g. the PULP
/// `axi_xbar` [19], a demux per manager in front of a mux per
/// subordinate). Each subordinate port arbitrates through the
/// `BurstArbiter` that `AxiMux` uses: round-robin at **burst
/// granularity**, W-channel reservation at AW-grant time and ID widening
/// for stateless response routing. The crossbar adds address decode per
/// manager, a cap on outstanding writes per subordinate, and AXI4 same-ID
/// ordering stalls. One component, so a request crosses in one cycle and a
/// response in one cycle (the RTL's mostly-combinational datapath plus one
/// register cut).
#pragma once

#include "axi/channel.hpp"
#include "ic/addr_map.hpp"
#include "ic/arb.hpp"
#include "ic/mux.hpp"

#include "sim/component.hpp"

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

namespace realm::ic {

struct XbarConfig {
    /// Subordinate index receiving traffic to unmapped addresses (typically
    /// an `ErrorSlave`); decoding an unmapped address without a default
    /// port is a contract violation.
    std::optional<std::uint32_t> default_port;
    /// Write bursts a subordinate port may have granted-but-incomplete.
    std::uint32_t max_outstanding_writes_per_sub = 8;
};

class AxiXbar : public sim::Component {
public:
    AxiXbar(sim::SimContext& ctx, std::string name, std::vector<axi::AxiChannel*> managers,
            std::vector<axi::AxiChannel*> subordinates, AddrMap map, XbarConfig config = {});

    void tick() override;

    [[nodiscard]] std::uint32_t num_managers() const noexcept {
        return static_cast<std::uint32_t>(mgrs_.size());
    }
    [[nodiscard]] std::uint32_t num_subordinates() const noexcept {
        return static_cast<std::uint32_t>(subs_.size());
    }

    /// \name Introspection for tests and benches
    ///@{
    [[nodiscard]] std::uint64_t w_stall_cycles(std::uint32_t sub) const {
        return arbs_.at(sub).w_stall_cycles();
    }
    [[nodiscard]] std::uint64_t decode_errors() const noexcept { return decode_errors_; }
    [[nodiscard]] std::uint64_t ordering_stalls() const noexcept { return ordering_stalls_; }
    ///@}

private:
    struct InFlight {
        std::uint32_t port = 0;
        std::uint32_t count = 0;
    };
    /// Per-manager per-ID in-flight state, keyed by `order_key`.
    using InFlightMap = std::unordered_map<std::uint64_t, InFlight>;
    [[nodiscard]] static std::uint64_t order_key(std::uint32_t mgr, axi::IdT id) noexcept {
        return (std::uint64_t{mgr} << 32) | id;
    }

    [[nodiscard]] std::uint32_t route(axi::Addr addr);
    /// AXI4 same-ID ordering: false (an ordering stall) while `id` of `mgr`
    /// is in flight to a subordinate other than `sub`.
    [[nodiscard]] bool in_order(const InFlightMap& in_flight, std::uint32_t mgr, axi::IdT id,
                                std::uint32_t sub);
    /// Books a granted request to `sub` in flight (and counts a decode
    /// error when `addr` is unmapped).
    void issued(InFlightMap& in_flight, std::uint32_t mgr, axi::Addr addr, axi::IdT id,
                std::uint32_t sub);
    /// Books one transaction of `id` back from flight.
    static void retired(InFlightMap& in_flight, std::uint32_t mgr, axi::IdT id);
    void arbitrate_aw(std::uint32_t sub);
    void forward_w(std::uint32_t sub);
    void arbitrate_ar(std::uint32_t sub);
    void route_b(std::uint32_t mgr);
    void route_r(std::uint32_t mgr);
    void update_activity();

    std::vector<axi::AxiChannel*> mgrs_;
    std::vector<axi::AxiChannel*> subs_;
    AddrMap map_;
    XbarConfig config_;

    std::vector<BurstArbiter> arbs_; ///< per subordinate
    std::vector<std::deque<std::uint32_t>> w_route_; ///< per manager: target sub per AW
    InFlightMap w_in_flight_; ///< ordering (writes)
    InFlightMap r_in_flight_; ///< ordering (reads)
    std::vector<RoundRobinArbiter> b_arb_; ///< per manager, over subordinates
    std::vector<RoundRobinArbiter> r_arb_; ///< per manager, over subordinates

    std::uint64_t decode_errors_ = 0;
    std::uint64_t ordering_stalls_ = 0;
};

} // namespace realm::ic
