#include "sim/check.hpp"

#include <charconv>

namespace realm::sim {

void contract_violation(const char* kind, const char* file, int line,
                        const std::string& message) {
    std::string what;
    what += kind;
    what += " violated at ";
    what += file;
    what += ':';
    what += std::to_string(line);
    what += ": ";
    what += message;
    throw ContractViolation{what};
}

std::string hex(std::uint64_t value) {
    char digits[16];
    const auto end = std::to_chars(digits, digits + sizeof digits, value, 16).ptr;
    return "0x" + std::string(digits, end);
}

} // namespace realm::sim
