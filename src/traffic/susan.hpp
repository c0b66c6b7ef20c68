/// \file
/// \brief MiBench *Susan* smoothing kernel and its interconnect trace.
///
/// Susan (Smallest Univalue Segment Assimilating Nucleus) smoothing is the
/// paper's stress benchmark: the most memory-intensive MiBench automotive
/// kernel. We implement the actual algorithm (brightness LUT x spatial
/// Gaussian window, center-excluded normalization) over a synthetic image
/// and record the *interconnect-visible* access stream: loads that miss a
/// small private filter cache (standing in for the core's L1 under OS
/// pressure) and write-through stores merged to bus words.
#pragma once

#include "axi/types.hpp"
#include "traffic/workload.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace realm::traffic {

struct SusanConfig {
    std::uint32_t width = 64;
    std::uint32_t height = 48;
    std::uint32_t mask_radius = 2;     ///< window = (2r+1)^2 taps
    std::uint8_t threshold = 20;       ///< brightness threshold `t`
    axi::Addr image_base = 0x8000'0000;
    axi::Addr out_base = 0x8004'0000;
    axi::Addr lut_base = 0x8008'0000;
    /// Private filter cache modeling the effective L1 locality capture under
    /// OS pressure: direct-mapped, word-granular lines. Smaller = more
    /// interconnect traffic.
    ///
    /// Calibration note: the paper's Figure 6 numbers (0.7 % of baseline at
    /// a ~264-cycle worst-case access latency, 68.2 % at fragmentation 1)
    /// imply that Susan's *interconnect-visible* stream on CVA6 is memory-
    /// latency dominated — execution time scales almost linearly with access
    /// latency. The defaults below (small filter cache, sub-cycle per-tap
    /// cost) put the generated trace in that regime; they are knobs, not
    /// measurements. Line size and line count must be powers of two; the
    /// generator throws otherwise.
    std::uint32_t filter_cache_bytes = 512;
    std::uint32_t filter_line_bytes = 8;
    /// Compute cost per window tap, in quarter cycles (1 = 0.25 cycles/tap).
    std::uint32_t compute_quarter_cycles_per_tap = 1;
    /// Cost of a load absorbed by the filter cache, in quarter cycles.
    std::uint32_t filtered_load_quarter_cycles = 1;
    std::uint64_t image_seed = 42;
    /// Safety cap on emitted operations (0 = unlimited).
    std::uint64_t max_ops = 0;

    /// Every field, so a field added above joins `shared_susan_trace`'s key.
    bool operator==(const SusanConfig&) const = default;
};

/// Runs the kernel once at construction; exposes the trace and both images.
class SusanTraceGenerator {
public:
    explicit SusanTraceGenerator(SusanConfig config);

    [[nodiscard]] const std::vector<MemOp>& ops() const noexcept { return ops_; }
    [[nodiscard]] const std::vector<std::uint8_t>& input_image() const noexcept {
        return input_;
    }
    [[nodiscard]] const std::vector<std::uint8_t>& output_image() const noexcept {
        return output_;
    }
    [[nodiscard]] const SusanConfig& config() const noexcept { return cfg_; }

    /// \name Trace statistics
    ///@{
    [[nodiscard]] std::uint64_t total_taps() const noexcept { return taps_; }
    [[nodiscard]] std::uint64_t filtered_loads() const noexcept { return filtered_loads_; }
    [[nodiscard]] std::uint64_t emitted_loads() const noexcept { return emitted_loads_; }
    [[nodiscard]] std::uint64_t emitted_stores() const noexcept { return emitted_stores_; }
    ///@}

    /// Reference smoothing (pure function of the input), used by tests.
    static std::vector<std::uint8_t> smooth_reference(const std::vector<std::uint8_t>& image,
                                                      std::uint32_t width, std::uint32_t height,
                                                      std::uint32_t radius,
                                                      std::uint8_t threshold);

    /// Deterministic synthetic test image: gradient + rectangles + noise.
    static std::vector<std::uint8_t> make_image(std::uint32_t width, std::uint32_t height,
                                                std::uint64_t seed);

private:
    void run_kernel();

    SusanConfig cfg_;
    std::vector<std::uint8_t> input_;
    std::vector<std::uint8_t> output_;
    std::vector<MemOp> ops_;
    std::uint64_t taps_ = 0;
    std::uint64_t filtered_loads_ = 0;
    std::uint64_t emitted_loads_ = 0;
    std::uint64_t emitted_stores_ = 0;
};

/// The generator for `config`, shared read-only. Each thread keeps the last
/// generator it built and returns it while the config stays equal; another
/// config builds a new one, which replaces it. The trace is a pure function
/// of the config, so sharing it changes no result.
[[nodiscard]] std::shared_ptr<const SusanTraceGenerator> shared_susan_trace(
    const SusanConfig& config);

} // namespace realm::traffic
