/// \file
/// \brief Fixed-memory streaming quantile sketch for cycle-latency samples.
///
/// The monitoring plane needs P50/P99/P999 for *every* manager on 16x16 and
/// 32x32 fabrics, with sketches living per-shard inside the sharded kernel
/// and merged once at run end. That rules out the classic P-squared estimator
/// (its marker positions depend on arrival order, so two shards cannot be
/// merged deterministically) and picks an HDR-style log-linear histogram:
///
///  - values below 2^kSubBits are counted exactly (one bucket per value);
///  - above that, each power-of-two octave is split into 2^kSubBits linear
///    sub-buckets, bounding the relative quantile error by 2^-kSubBits;
///  - merging is an element-wise counter add -- commutative, associative and
///    bit-exact, so any shard partitioning yields the identical merged sketch.
///
/// Memory is a fixed ~9 KiB of counters per sketch, O(1) per sample
/// (a bit-scan plus one increment), no allocation after construction.
#pragma once

#include "sim/types.hpp"

#include <array>
#include <cstdint>

namespace realm::mon {

/// Streaming quantile sketch over non-negative integer samples (cycles).
class QuantileSketch {
public:
    /// Linear sub-bucket resolution per octave: 2^kSubBits sub-buckets.
    static constexpr unsigned kSubBits = 5;
    /// Largest exponent tracked with full resolution; samples at or above
    /// 2^(kMaxExp+1) collapse into the top bucket (min/max stay exact).
    static constexpr unsigned kMaxExp = 40;
    /// Quantiles never underestimate and overestimate by less than this
    /// relative bound (for samples below 2^(kMaxExp+1)).
    static constexpr double kRelativeErrorBound = 1.0 / double(1u << kSubBits);
    /// Bucket count: the exact region [0, 2^kSubBits) plus one 2^kSubBits-wide
    /// block per octave kSubBits..kMaxExp, plus one overflow block.
    static constexpr std::size_t kBuckets =
        std::size_t{1u << kSubBits} * (kMaxExp - kSubBits + 2);

    /// Record one sample. O(1): bucket index is a bit-scan.
    void record(std::uint64_t value);

    /// Fold another sketch into this one (element-wise add). Commutative and
    /// associative, so per-shard sketches merge bit-identically in any order.
    void merge(const QuantileSketch& other);

    /// Nearest-rank quantile, q in [0, 1]. Returns the upper edge of the
    /// bucket holding the rank-q sample, clamped to the exact maximum: the
    /// result is >= the exact quantile and < exact * (1 + kRelativeErrorBound).
    /// Returns 0 when the sketch is empty.
    std::uint64_t quantile(double q) const;

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    /// Exact extrema (0 when empty).
    std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return max_; }
    double mean() const { return count_ == 0 ? 0.0 : double(sum_) / double(count_); }

    /// Bucket index for a value -- exposed for tests pinning the layout.
    static std::size_t bucket_index(std::uint64_t value);
    /// Largest value mapping to bucket `index` (inclusive upper edge).
    static std::uint64_t bucket_upper_edge(std::size_t index);

    /// Exact bucket-level equality (used by shard-determinism tests).
    bool operator==(const QuantileSketch& other) const;

private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
};

} // namespace realm::mon
