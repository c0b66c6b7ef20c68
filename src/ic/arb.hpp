/// \file
/// \brief Round-robin arbitration primitive.
#pragma once

#include "sim/check.hpp"

#include <cstdint>

namespace realm::ic {

/// Work-conserving round-robin arbiter over N requesters.
///
/// The pointer advances past the winner on every grant, so under sustained
/// load each requester receives an equal share of grants. The interconnect
/// applies it at *burst* granularity (a grant locks the data channel until
/// the burst's last beat) — the fairness problem AXI-REALM's granular burst
/// splitter exists to fix.
class RoundRobinArbiter {
public:
    explicit RoundRobinArbiter(std::uint32_t num_requesters = 1)
        : num_{num_requesters} {
        REALM_EXPECTS(num_ >= 1, "arbiter needs at least one requester");
    }

    /// Picks the next requester for which `requesting(index)` is true,
    /// starting the scan one past the previous winner. Returns -1 when no
    /// requester is active. Does not advance the pointer (call `commit`).
    template <typename Pred>
    [[nodiscard]] int pick(Pred&& requesting) const {
        for (std::uint32_t i = 0; i < num_; ++i) {
            const std::uint32_t idx = (last_ + 1 + i) % num_;
            if (requesting(idx)) { return static_cast<int>(idx); }
        }
        return -1;
    }

    /// Records `winner` as granted, advancing the round-robin pointer.
    void commit(std::uint32_t winner) {
        REALM_EXPECTS(winner < num_, "winner out of range");
        last_ = winner;
    }

    [[nodiscard]] std::uint32_t size() const noexcept { return num_; }

private:
    std::uint32_t num_;
    std::uint32_t last_ = num_ - 1;
};

} // namespace realm::ic
