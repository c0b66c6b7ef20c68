/// \file
/// \brief Manager isolation block (ingress stage of the REALM unit).
///
/// Cuts a manager off from the memory system while letting already-granted
/// transactions complete. Isolation triggers (paper, Section III-A):
/// budget depletion, reconfiguration of intrusive parameters, or a
/// user/hypervisor command.
#pragma once

#include <cstdint>

namespace realm::rt {

/// Why the manager is (being) isolated; multiple causes may be active.
enum class IsolationCause : std::uint8_t {
    kUser = 1U << 0,     ///< commanded through the configuration interface
    kBudget = 1U << 1,   ///< a region's budget is depleted
    kReconfig = 1U << 2, ///< draining for an intrusive parameter change
};

class IsolationBlock {
public:
    /// \name Cause management
    ///@{
    void raise(IsolationCause cause) noexcept { causes_ |= static_cast<std::uint8_t>(cause); }
    void clear(IsolationCause cause) noexcept {
        causes_ &= static_cast<std::uint8_t>(~static_cast<std::uint8_t>(cause));
    }
    [[nodiscard]] bool cause_active(IsolationCause cause) const noexcept {
        return (causes_ & static_cast<std::uint8_t>(cause)) != 0;
    }
    [[nodiscard]] bool any_cause() const noexcept { return causes_ != 0; }
    ///@}

    /// New transactions may enter the memory system.
    [[nodiscard]] bool may_accept() const noexcept { return causes_ == 0; }

    /// Isolation has fully taken effect: no transaction is in flight.
    [[nodiscard]] bool fully_isolated() const noexcept {
        return any_cause() && outstanding() == 0;
    }

    /// \name Outstanding-transaction tracking
    ///@{
    void on_read_accepted() noexcept { ++outstanding_reads_; }
    void on_read_completed() noexcept {
        if (outstanding_reads_ > 0) { --outstanding_reads_; }
    }
    void on_write_accepted() noexcept { ++outstanding_writes_; }
    void on_write_completed() noexcept {
        if (outstanding_writes_ > 0) { --outstanding_writes_; }
    }
    [[nodiscard]] std::uint32_t outstanding() const noexcept {
        return outstanding_reads_ + outstanding_writes_;
    }
    ///@}

private:
    std::uint8_t causes_ = 0;
    std::uint32_t outstanding_reads_ = 0;
    std::uint32_t outstanding_writes_ = 0;
};

} // namespace realm::rt
