#include "mem/backend.hpp"

#include <algorithm>

namespace realm::mem {

DramBackend::DramBackend(DramTiming timing)
    : timing_{timing},
      open_row_(timing.banks, -1),
      bank_free_at_(timing.banks, 0) {}

sim::Cycle DramBackend::access_latency(axi::Addr addr, std::uint32_t beats, bool /*is_write*/,
                                       sim::Cycle now) {
    const axi::Addr stripe = addr / timing_.row_bytes;
    const std::size_t bank = static_cast<std::size_t>(stripe % timing_.banks);
    const auto row = static_cast<std::int64_t>(stripe / timing_.banks);

    const bool hit = open_row_[bank] == row;
    (hit ? row_hits_ : row_misses_) += 1;
    open_row_[bank] = row;

    const sim::Cycle core_latency = hit ? timing_.row_hit : timing_.row_miss;
    // Serialize behind earlier work on the same bank.
    const sim::Cycle start = std::max(now, bank_free_at_[bank]);
    const sim::Cycle first_data = start + core_latency;
    bank_free_at_[bank] = first_data + beats; // data occupies the bank
    return first_data - now;
}

} // namespace realm::mem
