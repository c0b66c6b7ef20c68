#include "mon/quantile.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace realm::mon {

std::size_t QuantileSketch::bucket_index(std::uint64_t value) {
    constexpr std::uint64_t kLinearLimit = std::uint64_t{1} << kSubBits;
    if (value < kLinearLimit) { return static_cast<std::size_t>(value); }
    const unsigned exp = std::bit_width(value) - 1; // >= kSubBits
    if (exp > kMaxExp) { return kBuckets - 1; }
    const unsigned shift = exp - kSubBits;
    const std::size_t block = exp - kSubBits + 1; // 1..kMaxExp-kSubBits+1
    const std::size_t sub = static_cast<std::size_t>((value >> shift) & (kLinearLimit - 1));
    return (block << kSubBits) + sub;
}

std::uint64_t QuantileSketch::bucket_upper_edge(std::size_t index) {
    constexpr std::uint64_t kLinearLimit = std::uint64_t{1} << kSubBits;
    if (index < kLinearLimit) { return index; } // exact region: one value per bucket
    const std::size_t block = index >> kSubBits;
    const unsigned shift = static_cast<unsigned>(block - 1); // exp - kSubBits
    const std::uint64_t sub = index & (kLinearLimit - 1);
    return ((kLinearLimit + sub + 1) << shift) - 1;
}

void QuantileSketch::record(std::uint64_t value) {
    ++counts_[bucket_index(value)];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void QuantileSketch::merge(const QuantileSketch& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) { counts_[i] += other.counts_[i]; }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

std::uint64_t QuantileSketch::quantile(double q) const {
    if (count_ == 0) { return 0; }
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank: the smallest sample whose cumulative count reaches q*N.
    const std::uint64_t target =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(q * double(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += counts_[i];
        if (seen >= target) {
            // The overflow bucket has no honest upper edge: report the exact
            // maximum rather than underestimate. Elsewhere the edge may only
            // overshoot the true max (last occupied bucket), so clamp down.
            if (i + 1 == kBuckets) { return max_; }
            return std::min(bucket_upper_edge(i), max_);
        }
    }
    return max_; // unreachable: counts_ sums to count_
}

bool QuantileSketch::operator==(const QuantileSketch& other) const {
    return counts_ == other.counts_ && count_ == other.count_ && sum_ == other.sum_ &&
           min_ == other.min_ && max_ == other.max_;
}

} // namespace realm::mon
