/// \file
/// \brief Monitoring & Regulation (M&R) unit: the credit engine of AXI-REALM.
///
/// Tracks per-region transferred bytes against a budget that replenishes on
/// a configurable period, decides when the manager must be isolated, and
/// collects the observability statistics (bandwidth, latency, interference
/// proxies) the paper exposes for budget/period selection.
#pragma once

#include "axi/types.hpp"

#include "sim/stats.hpp"
#include "sim/types.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace realm::rt {

/// Runtime configuration of one subordinate address region.
struct RegionConfig {
    axi::Addr start = 0;
    axi::Addr end = ~axi::Addr{0};   ///< exclusive
    std::uint64_t budget_bytes = 0;  ///< credit granted per period (0 = unregulated)
    sim::Cycle period_cycles = 0;    ///< replenish interval (0 = unregulated)

    [[nodiscard]] bool regulated() const noexcept {
        return budget_bytes != 0 && period_cycles != 0;
    }
    [[nodiscard]] bool contains(axi::Addr addr) const noexcept {
        return addr >= start && addr < end;
    }
};

/// Live bookkeeping of one region (a "bookkeeping unit" in Figure 4).
struct RegionState {
    RegionConfig config;
    std::int64_t credit = 0;          ///< remaining budget; <= 0 means depleted
    sim::Cycle period_start = 0;
    std::uint64_t bytes_this_period = 0;
    std::uint64_t bytes_total = 0;
    std::uint64_t txns_total = 0;
    std::uint64_t periods_elapsed = 0;
    std::uint64_t depletion_events = 0;
    sim::LatencyStat read_latency;
    sim::LatencyStat write_latency;

    /// Bytes/cycle within the current period (the register-file bandwidth
    /// readout the paper describes as "trivially retrievable").
    [[nodiscard]] double current_bandwidth(sim::Cycle now) const noexcept {
        const sim::Cycle elapsed = now - period_start;
        return elapsed == 0 ? 0.0
                            : static_cast<double>(bytes_this_period) /
                                  static_cast<double>(elapsed);
    }
};

class MonitorRegulationUnit {
public:
    explicit MonitorRegulationUnit(std::uint32_t num_regions);

    /// \name Configuration (via the protected register file)
    ///@{
    void configure_region(std::uint32_t index, const RegionConfig& config, sim::Cycle now);
    [[nodiscard]] std::uint32_t num_regions() const noexcept {
        return static_cast<std::uint32_t>(regions_.size());
    }
    void set_throttle_enabled(bool enabled) noexcept { throttle_enabled_ = enabled; }
    [[nodiscard]] bool throttle_enabled() const noexcept { return throttle_enabled_; }
    ///@}

    /// Advances period timers; replenishes credits on period boundaries.
    void tick(sim::Cycle now);

    /// Earliest upcoming credit-replenish boundary across regulated regions
    /// (`kNoCycle` when nothing is regulated). The only cycle-driven event
    /// in the M&R unit, so a unit with empty channels may sleep until then.
    [[nodiscard]] sim::Cycle next_replenish_cycle() const noexcept;

    /// Region containing `addr`, if any.
    [[nodiscard]] std::optional<std::uint32_t> region_of(axi::Addr addr) const noexcept;

    /// True when no regulated region is depleted (new transactions may pass).
    [[nodiscard]] bool admission_open() const noexcept;

    /// True when at least one regulated region has exhausted its credit —
    /// the condition that isolates the manager until replenishment.
    [[nodiscard]] bool budget_exhausted() const noexcept { return !admission_open(); }

    /// Debits `bytes` against the region containing `addr`. `RealmUnit`
    /// calls it once per upstream burst, when it accepts the AW or AR, with
    /// the whole burst's bytes, before the splitter fragments it. A burst
    /// admitted on any positive credit is charged in full, so the credit
    /// may go negative: the overdraft a pipelined attacker exploits, repaid
    /// from the next periods' budgets.
    void charge(axi::Addr addr, std::uint64_t bytes);

    /// Records a completed transaction's latency for the region statistics.
    void record_completion(std::optional<std::uint32_t> region, sim::Cycle latency,
                          bool is_write);

    /// Outstanding-transaction cap from the throttling unit: scales linearly
    /// with the most-depleted regulated region's remaining credit, clamped
    /// to [1, max_pending]. With throttling off, returns max_pending.
    [[nodiscard]] std::uint32_t allowed_outstanding(std::uint32_t max_pending) const noexcept;

    /// \name Observability
    ///@{
    [[nodiscard]] const RegionState& region(std::uint32_t index) const {
        return regions_.at(index);
    }
    [[nodiscard]] std::uint64_t unmatched_txns() const noexcept { return unmatched_txns_; }
    [[nodiscard]] std::uint64_t isolation_cycles() const noexcept { return isolation_cycles_; }
    void note_isolated_cycle() noexcept { ++isolation_cycles_; }
    ///@}

private:
    std::vector<RegionState> regions_;
    bool throttle_enabled_ = false;
    std::uint64_t unmatched_txns_ = 0;
    std::uint64_t isolation_cycles_ = 0;
};

} // namespace realm::rt
