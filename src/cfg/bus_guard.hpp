/// \file
/// \brief Bus guard protecting the AXI-REALM configuration space.
///
/// Paper, Section III-B: after reset the configuration space is unclaimed
/// and every access except a write to the guard register errors. A trusted
/// manager (e.g. the HWRoT during boot) claims ownership by writing the
/// guard register; the guard then admits only accesses whose transaction ID
/// matches the owner. The owner can hand exclusive ownership to another
/// manager by writing that manager's TID to the guard register.
#pragma once

#include "cfg/regbus.hpp"

#include <cstdint>

namespace realm::cfg {

class BusGuard final : public RegTarget {
public:
    /// Byte offset of the guard register inside the protected space.
    static constexpr axi::Addr kGuardOffset = 0x0;
    /// Guard-register read value while unclaimed.
    static constexpr std::uint32_t kUnclaimed = 0xFFFF'FFFFU;

    /// \param inner  the protected register file; offsets other than the
    ///        guard register are forwarded untouched.
    explicit BusGuard(RegTarget& inner) : inner_{&inner} {}

    RegRsp reg_access(const RegReq& req) override {
        if (req.addr == kGuardOffset) {
            if (!req.write) { return RegRsp::ok(claimed_ ? owner_ : kUnclaimed); }
            if (!claimed_) {
                // Claim: the *writing* manager becomes the owner. The paper
                // keys ownership on the unique transaction ID.
                claimed_ = true;
                owner_ = req.tid;
                ++claims_;
                return RegRsp::ok();
            }
            if (req.tid == owner_) {
                // Handover to the TID named in the write data.
                owner_ = req.wdata;
                ++handovers_;
                return RegRsp::ok();
            }
            ++rejected_;
            return RegRsp::err();
        }
        if (!claimed_ || req.tid != owner_) {
            ++rejected_;
            return RegRsp::err();
        }
        return inner_->reg_access(req);
    }

    /// \name Introspection
    ///@{
    [[nodiscard]] bool claimed() const noexcept { return claimed_; }
    [[nodiscard]] axi::IdT owner() const noexcept { return owner_; }
    [[nodiscard]] std::uint64_t rejected_accesses() const noexcept { return rejected_; }
    [[nodiscard]] std::uint64_t claims() const noexcept { return claims_; }
    [[nodiscard]] std::uint64_t handovers() const noexcept { return handovers_; }
    ///@}

private:
    RegTarget* inner_;
    bool claimed_ = false;
    axi::IdT owner_ = 0;
    std::uint64_t claims_ = 0;
    std::uint64_t handovers_ = 0;
    std::uint64_t rejected_ = 0;
};

} // namespace realm::cfg
