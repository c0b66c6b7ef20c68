/// \file
/// \brief N-manager to 1-subordinate AXI multiplexer.
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

#include "sim/component.hpp"

#include <cstdint>
#include <deque>
#include <vector>

namespace realm::ic {

class AxiMux : public sim::Component {
public:
    /// N is the number of upstream ports: on the NoC fabrics, the managers
    /// present (one egress lane each, in ascending node order), not every
    /// node. IDs are remapped as `down_id = up_id * N + manager_index` so
    /// response routing is stateless and collision-free.
    AxiMux(sim::SimContext& ctx, std::string name,
           std::vector<axi::AxiChannel*> upstreams, axi::AxiChannel& downstream);

    void reset() override;
    void tick() override;

    [[nodiscard]] std::uint32_t num_managers() const noexcept {
        return static_cast<std::uint32_t>(ups_.size());
    }
    /// Grants per manager (fairness introspection for tests/benches).
    [[nodiscard]] std::uint64_t aw_grants(std::uint32_t mgr) const {
        return aw_grant_count_.at(mgr);
    }
    [[nodiscard]] std::uint64_t ar_grants(std::uint32_t mgr) const {
        return ar_grant_count_.at(mgr);
    }
    /// Cycles the W channel spent stalled waiting for a granted manager's
    /// data while other writes were pending (DoS exposure metric).
    [[nodiscard]] std::uint64_t w_stall_cycles() const noexcept { return w_stall_cycles_; }

private:
    struct WGrant {
        std::uint32_t mgr = 0;
        std::uint32_t beats_left = 0;
    };

    void arbitrate_aw();
    void forward_w();
    void arbitrate_ar();
    void route_b();
    void route_r();
    void update_activity();

    std::vector<axi::AxiChannel*> ups_;
    axi::ManagerView down_;

    RoundRobinArbiter aw_arb_;
    RoundRobinArbiter ar_arb_;
    std::deque<WGrant> w_order_;

    std::vector<std::uint64_t> aw_grant_count_;
    std::vector<std::uint64_t> ar_grant_count_;
    std::uint64_t w_stall_cycles_ = 0;
};

} // namespace realm::ic
