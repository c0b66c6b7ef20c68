/// \file
/// \brief Running latency statistic used by the M&R unit and the traffic
///        models. Quantiles come from `mon::QuantileSketch` instead.
#pragma once

#include "sim/types.hpp"

#include <algorithm>
#include <cstdint>

namespace realm::sim {

/// Scalar running statistic over cycle counts (latencies, service times...):
/// count/sum/min/max, enough to report mean and worst case without storing
/// samples.
class LatencyStat {
public:
    void record(Cycle value) noexcept {
        ++count_;
        sum_ += value;
        min_ = count_ == 1 ? value : std::min(min_, value);
        max_ = std::max(max_, value);
    }

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
    [[nodiscard]] Cycle min() const noexcept { return count_ == 0 ? 0 : min_; }
    [[nodiscard]] Cycle max() const noexcept { return max_; }
    [[nodiscard]] double mean() const noexcept {
        return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
    }

private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    Cycle min_ = 0;
    Cycle max_ = 0;
};

} // namespace realm::sim
