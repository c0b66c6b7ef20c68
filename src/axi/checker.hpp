/// \file
/// \brief In-line AXI4 protocol checker.
///
/// A pass-through component placed between a manager-side and a
/// subordinate-side channel. It forwards at most one flit per channel per
/// cycle (full bus rate) and validates protocol rules on the fly. Used
/// throughout the test suite to prove that every block in this repository
/// emits legal AXI4 traffic. Idle-aware: a quiet hop costs nothing, so
/// checked scenarios fast-forward like bare ones.
#pragma once

#include "axi/channel.hpp"

#include "sim/component.hpp"

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace realm::axi {

/// Protocol rules checked:
///  - AW/AR burst legality (length, WRAP alignment, 4 KiB crossing, size);
///  - W beat count matches the corresponding AW (AW order), WLAST exactly on
///    the final beat, no W without a preceding AW (model convention);
///  - B only for an outstanding write of that ID, at most one per write;
///  - R beat count per AR of that ID, RLAST exactly on the final beat;
///  - no response channel activity for IDs that were never requested.
class AxiChecker : public sim::Component {
public:
    /// \param throw_on_violation  When true (default), a violation raises
    ///        `sim::ContractViolation`; otherwise it is recorded and the
    ///        flit is forwarded anyway (lets tests enumerate violations).
    AxiChecker(sim::SimContext& ctx, std::string name, AxiChannel& upstream,
               AxiChannel& downstream, bool throw_on_violation = true);

    void tick() override;

    [[nodiscard]] std::uint64_t violation_count() const noexcept { return violations_.size(); }
    [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
        return violations_;
    }
    /// Transactions fully completed (B received / last R received).
    [[nodiscard]] std::uint64_t completed_writes() const noexcept { return completed_writes_; }
    [[nodiscard]] std::uint64_t completed_reads() const noexcept { return completed_reads_; }

private:
    void violation(const std::string& message);
    void update_activity();
    void check_aw(const AwFlit& f);
    void check_w(const WFlit& f);
    void check_b(const BFlit& f);
    void check_ar(const ArFlit& f);
    void check_r(const RFlit& f);

    SubordinateView up_;
    ManagerView down_;
    bool throw_on_violation_;

    /// Write bursts whose W beats are still being counted, in AW order.
    struct PendingWrite {
        IdT id = 0;
        std::uint32_t beats_total = 0;
        std::uint32_t beats_seen = 0;
    };
    std::deque<PendingWrite> w_queue_;
    /// Writes with all data sent, awaiting B, per ID.
    std::unordered_map<IdT, std::uint32_t> awaiting_b_;
    /// Outstanding read-beat counts, per ID, in AR order.
    std::unordered_map<IdT, std::deque<std::uint32_t>> r_remaining_;

    std::vector<std::string> violations_;
    std::uint64_t completed_writes_ = 0;
    std::uint64_t completed_reads_ = 0;
};

} // namespace realm::axi
