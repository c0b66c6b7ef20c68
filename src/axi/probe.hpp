/// \file
/// \brief Pass-through latency/bandwidth probe for a manager<->subordinate hop.
///
/// Measures, per transaction: AW-accept to B (write latency) and AR-accept
/// to last R (read latency), plus transported beat/byte counts. Being a
/// pipeline component it adds exactly one cycle per hop; place it
/// symmetrically in compared configurations (or rely on the traffic
/// generators' own end-to-end latency stats for absolute numbers).
/// Honours the activity-aware idle/wake contract: an empty hop costs
/// nothing, so instrumented scenarios fast-forward like bare ones.
#pragma once

#include "axi/channel.hpp"

#include "mon/quantile.hpp"
#include "sim/component.hpp"
#include "sim/stats.hpp"

#include <cstdint>
#include <deque>
#include <unordered_map>

namespace realm::axi {

class AxiLatencyProbe : public sim::Component {
public:
    AxiLatencyProbe(sim::SimContext& ctx, std::string name, AxiChannel& upstream,
                    AxiChannel& downstream);

    void reset() override;
    void tick() override;

    [[nodiscard]] const sim::LatencyStat& write_latency() const noexcept { return write_lat_; }
    [[nodiscard]] const sim::LatencyStat& read_latency() const noexcept { return read_lat_; }
    /// Fixed-memory quantile sketches over the same samples as the stats
    /// above; quantiles carry the documented <= 3.125% relative error bound.
    [[nodiscard]] const mon::QuantileSketch& write_sketch() const noexcept { return write_sketch_; }
    [[nodiscard]] const mon::QuantileSketch& read_sketch() const noexcept { return read_sketch_; }
    [[nodiscard]] std::uint64_t bytes_read() const noexcept { return bytes_read_; }
    [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }
    [[nodiscard]] std::uint64_t aw_count() const noexcept { return aw_count_; }
    [[nodiscard]] std::uint64_t ar_count() const noexcept { return ar_count_; }

    /// Average bytes/cycle since reset (both directions).
    [[nodiscard]] double bandwidth(sim::Cycle elapsed) const noexcept {
        return elapsed == 0 ? 0.0
                            : static_cast<double>(bytes_read_ + bytes_written_) /
                                  static_cast<double>(elapsed);
    }

private:
    void update_activity();

    SubordinateView up_;
    ManagerView down_;

    std::unordered_map<IdT, std::deque<sim::Cycle>> write_start_;
    std::unordered_map<IdT, std::deque<sim::Cycle>> read_start_;
    std::unordered_map<IdT, std::uint32_t> w_bytes_per_beat_;

    sim::LatencyStat write_lat_;
    sim::LatencyStat read_lat_;
    mon::QuantileSketch write_sketch_;
    mon::QuantileSketch read_sketch_;
    std::uint64_t bytes_read_ = 0;
    std::uint64_t bytes_written_ = 0;
    std::uint64_t aw_count_ = 0;
    std::uint64_t ar_count_ = 0;
    std::uint32_t current_w_bytes_ = 0;
};

} // namespace realm::axi
