#include "realm/mr_unit.hpp"

#include "sim/check.hpp"

#include <algorithm>

namespace realm::rt {

MonitorRegulationUnit::MonitorRegulationUnit(std::uint32_t num_regions)
    : regions_(num_regions) {
    REALM_EXPECTS(num_regions >= 1, "M&R unit needs at least one region");
}

void MonitorRegulationUnit::configure_region(std::uint32_t index, const RegionConfig& config,
                                             sim::Cycle now) {
    RegionState& r = regions_.at(index);
    r.config = config;
    // Reconfiguration restarts the period with a fresh credit: the paper
    // classifies budget/period writes as "intrusive" parameters that
    // trigger re-initialization.
    r.credit = static_cast<std::int64_t>(config.budget_bytes);
    r.period_start = now;
    r.bytes_this_period = 0;
}

void MonitorRegulationUnit::tick(sim::Cycle now) {
    for (RegionState& r : regions_) {
        if (!r.config.regulated()) { continue; }
        if (now - r.period_start >= r.config.period_cycles) {
            r.period_start += r.config.period_cycles;
            ++r.periods_elapsed;
            r.bytes_this_period = 0;
            // Fresh credit each period; an overdraft (negative credit from a
            // burst charged past zero) is repaid first, so a manager cannot
            // bank unused bandwidth or profit from overshooting.
            r.credit += static_cast<std::int64_t>(r.config.budget_bytes);
            r.credit = std::min(r.credit, static_cast<std::int64_t>(r.config.budget_bytes));
        }
    }
}

sim::Cycle MonitorRegulationUnit::next_replenish_cycle() const noexcept {
    sim::Cycle next = sim::kNoCycle;
    for (const RegionState& r : regions_) {
        if (!r.config.regulated()) { continue; }
        next = std::min(next, r.period_start + r.config.period_cycles);
    }
    return next;
}

std::optional<std::uint32_t> MonitorRegulationUnit::region_of(axi::Addr addr) const noexcept {
    for (std::uint32_t i = 0; i < regions_.size(); ++i) {
        if (regions_[i].config.contains(addr)) { return i; }
    }
    return std::nullopt;
}

bool MonitorRegulationUnit::admission_open() const noexcept {
    return std::none_of(regions_.begin(), regions_.end(), [](const RegionState& r) {
        return r.config.regulated() && r.credit <= 0;
    });
}

void MonitorRegulationUnit::charge(axi::Addr addr, std::uint64_t bytes) {
    const auto idx = region_of(addr);
    if (!idx) {
        ++unmatched_txns_;
        return;
    }
    RegionState& r = regions_[*idx];
    r.bytes_this_period += bytes;
    r.bytes_total += bytes;
    ++r.txns_total;
    if (r.config.regulated()) {
        const bool was_positive = r.credit > 0;
        r.credit -= static_cast<std::int64_t>(bytes);
        if (was_positive && r.credit <= 0) { ++r.depletion_events; }
    }
}

void MonitorRegulationUnit::record_completion(std::optional<std::uint32_t> region,
                                              sim::Cycle latency, bool is_write) {
    if (!region) { return; }
    RegionState& r = regions_.at(*region);
    (is_write ? r.write_latency : r.read_latency).record(latency);
}

std::uint32_t MonitorRegulationUnit::allowed_outstanding(
    std::uint32_t max_pending) const noexcept {
    if (!throttle_enabled_) { return max_pending; }
    double worst_fraction = 1.0;
    for (const RegionState& r : regions_) {
        if (!r.config.regulated()) { continue; }
        const double fraction =
            std::max(0.0, static_cast<double>(r.credit) /
                              static_cast<double>(r.config.budget_bytes));
        worst_fraction = std::min(worst_fraction, fraction);
    }
    const auto allowed = static_cast<std::uint32_t>(
        static_cast<double>(max_pending) * worst_fraction + 0.5);
    return std::clamp<std::uint32_t>(allowed, 1, max_pending);
}

} // namespace realm::rt
