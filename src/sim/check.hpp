/// \file
/// \brief Contract-checking helpers (Core Guidelines I.6/I.8 style).
///
/// Violations throw `realm::sim::ContractViolation` so tests can assert on
/// them and simulations fail loudly instead of silently corrupting state.
/// The checks stay enabled in release builds: they guard protocol and
/// bookkeeping invariants whose cost is negligible next to the simulation
/// work itself.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace realm::sim {

/// Exception thrown on any contract violation.
class ContractViolation : public std::logic_error {
public:
    using std::logic_error::logic_error;
};

/// Builds the diagnostic string and throws. Out-of-line to keep call sites
/// small.
[[noreturn]] void contract_violation(const char* kind, const char* file, int line,
                                     const std::string& message);

/// `value` as "0x" plus lower-case hex digits, for addresses in messages.
[[nodiscard]] std::string hex(std::uint64_t value);

} // namespace realm::sim

/// Precondition check: argument/state requirements at function entry.
#define REALM_EXPECTS(cond, msg)                                                       \
    do {                                                                               \
        if (!(cond)) {                                                                 \
            ::realm::sim::contract_violation("precondition", __FILE__, __LINE__, msg); \
        }                                                                              \
    } while (false)

/// Postcondition / invariant check.
#define REALM_ENSURES(cond, msg)                                                        \
    do {                                                                                \
        if (!(cond)) {                                                                  \
            ::realm::sim::contract_violation("postcondition", __FILE__, __LINE__, msg); \
        }                                                                               \
    } while (false)

/// Marks a code path that must be unreachable.
#define REALM_UNREACHABLE(msg) \
    ::realm::sim::contract_violation("unreachable", __FILE__, __LINE__, msg)
