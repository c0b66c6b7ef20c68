/// \file
/// \brief AXI4 subordinate front-end for a register target.
///
/// Terminates single-beat AXI transactions into `RegTarget` accesses (the
/// path a core takes to program the REALM units: crossbar -> this adapter
/// -> bus guard -> register file). Errors are reported as SLVERR; bursts
/// longer than one beat are rejected (config space is register-granular).
#pragma once

#include "axi/channel.hpp"
#include "cfg/regbus.hpp"

#include "sim/component.hpp"

#include <cstdint>

namespace realm::cfg {

class AxiToReg : public sim::Component {
public:
    /// \param base  bus address of register offset 0.
    AxiToReg(sim::SimContext& ctx, std::string name, axi::AxiChannel& channel,
             RegTarget& target, axi::Addr base = 0);

    void tick() override;

    [[nodiscard]] std::uint64_t reads() const noexcept { return reads_; }
    [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
    [[nodiscard]] std::uint64_t errors() const noexcept { return errors_; }

private:
    void step_datapath();

    axi::SubordinateView port_;
    RegTarget* target_;
    axi::Addr base_;

    /// In-progress write (AW seen, waiting for the data beat).
    bool write_pending_ = false;
    axi::AwFlit pending_aw_{};
    /// Remaining SLVERR beats of a rejected burst read.
    std::uint32_t err_read_beats_ = 0;
    axi::IdT err_read_id_ = 0;

    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t errors_ = 0;
};

} // namespace realm::cfg
