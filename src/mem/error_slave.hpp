/// \file
/// \brief Terminates traffic to unmapped address space with DECERR.
#pragma once

#include "axi/channel.hpp"

#include "sim/component.hpp"

#include <cstdint>
#include <deque>

namespace realm::mem {

/// AXI4 subordinate that accepts any transaction and answers every beat
/// with DECERR, per the AXI default-subordinate convention. Keeps the
/// interconnect live when a manager addresses a hole in the memory map.
class ErrorSlave : public sim::Component {
public:
    ErrorSlave(sim::SimContext& ctx, std::string name, axi::AxiChannel& channel);

    void tick() override;

    [[nodiscard]] std::uint64_t errors_returned() const noexcept { return errors_; }

private:
    struct PendingWrite {
        axi::IdT id = 0;
        std::uint32_t beats_left = 0;
    };
    struct PendingRead {
        axi::IdT id = 0;
        std::uint32_t beats_left = 0;
    };

    axi::SubordinateView port_;
    std::deque<PendingWrite> writes_;
    std::deque<PendingRead> reads_;
    std::uint64_t errors_ = 0;
};

} // namespace realm::mem
