/// \file
/// \brief System address map: decodes bus addresses to subordinate ports.
#pragma once

#include "axi/types.hpp"

#include "sim/check.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace realm::ic {

/// One mapping rule: [base, base+size) -> subordinate port index.
struct AddrRule {
    axi::Addr base = 0;
    std::uint64_t size = 0;
    std::uint32_t port = 0;
    std::string label;

    [[nodiscard]] axi::Addr end() const noexcept { return base + size; }
    [[nodiscard]] bool contains(axi::Addr addr) const noexcept {
        return addr >= base && addr < end();
    }
};

/// Ordered rule list with first-match decode. Rules must not overlap
/// (checked at insertion) so decode results are unambiguous.
class AddrMap {
public:
    AddrMap() = default;

    AddrMap& add(axi::Addr base, std::uint64_t size, std::uint32_t port,
                 std::string label = {}) {
        REALM_EXPECTS(size > 0, "address rule must have non-zero size");
        for (const AddrRule& r : rules_) {
            const bool disjoint = base + size <= r.base || base >= r.end();
            REALM_EXPECTS(disjoint, "address rule overlaps existing rule " + r.label);
        }
        rules_.push_back(AddrRule{base, size, port, std::move(label)});
        return *this;
    }

    /// Port serving `addr`, or nullopt when the address is unmapped.
    [[nodiscard]] std::optional<std::uint32_t> decode(axi::Addr addr) const noexcept {
        for (const AddrRule& r : rules_) {
            if (r.contains(addr)) { return r.port; }
        }
        return std::nullopt;
    }

    [[nodiscard]] const std::vector<AddrRule>& rules() const noexcept { return rules_; }

private:
    std::vector<AddrRule> rules_;
};

} // namespace realm::ic
