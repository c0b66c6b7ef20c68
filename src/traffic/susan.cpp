#include "traffic/susan.hpp"

#include "sim/check.hpp"
#include "sim/rng.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>

namespace realm::traffic {

namespace {

/// Direct-mapped filter cache deciding which loads reach the interconnect.
/// Line size and line count are powers of two, so a probe shifts and masks.
class FilterCache {
public:
    FilterCache(std::uint32_t bytes, std::uint32_t line_bytes) {
        REALM_EXPECTS(std::has_single_bit(line_bytes),
                      "filter cache line size must be a power of two");
        REALM_EXPECTS(std::has_single_bit(bytes / line_bytes),
                      "filter cache must hold a power-of-two number of lines");
        line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
        tags_.assign(bytes / line_bytes, ~std::uint64_t{0});
    }

    /// Returns true on hit; installs the line on miss.
    bool access(axi::Addr addr) {
        const std::uint64_t line = addr >> line_shift_;
        std::uint64_t& tag = tags_[static_cast<std::size_t>(line & (tags_.size() - 1))];
        if (tag == line) { return true; }
        tag = line;
        return false;
    }

private:
    unsigned line_shift_ = 0;
    std::vector<std::uint64_t> tags_;
};

/// Brightness LUT of the Susan kernel: bp[d] ~ 100 * exp(-(d/t)^2) for a
/// brightness difference d.
std::vector<std::uint16_t> make_brightness_lut(std::uint8_t threshold) {
    std::vector<std::uint16_t> lut(256);
    const double t = static_cast<double>(threshold);
    for (std::size_t d = 0; d < lut.size(); ++d) {
        const double x = static_cast<double>(d) / t;
        lut[d] = static_cast<std::uint16_t>(std::llround(100.0 * std::exp(-x * x)));
    }
    return lut;
}

/// Spatial Gaussian mask ~ 100 * exp(-(i^2+j^2) / (2 sigma^2)).
std::vector<std::uint16_t> make_spatial_lut(std::uint32_t radius) {
    const std::uint32_t d = 2 * radius + 1;
    std::vector<std::uint16_t> lut(std::size_t{d} * d);
    const double sigma = static_cast<double>(radius) * 0.7 + 0.3;
    for (std::uint32_t j = 0; j < d; ++j) {
        for (std::uint32_t i = 0; i < d; ++i) {
            const double dx = static_cast<double>(i) - radius;
            const double dy = static_cast<double>(j) - radius;
            const double w = 100.0 * std::exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma));
            lut[std::size_t{j} * d + i] = static_cast<std::uint16_t>(std::llround(w));
        }
    }
    return lut;
}

} // namespace

std::vector<std::uint8_t> SusanTraceGenerator::make_image(std::uint32_t width,
                                                          std::uint32_t height,
                                                          std::uint64_t seed) {
    std::vector<std::uint8_t> image(std::size_t{width} * height);
    sim::Rng rng{seed};
    for (std::uint32_t y = 0; y < height; ++y) {
        for (std::uint32_t x = 0; x < width; ++x) {
            // Diagonal gradient.
            std::uint32_t v = (x * 160 / width + y * 64 / height) & 0xFF;
            // Two bright rectangles provide edges the smoother must respect.
            if (x > width / 5 && x < width / 2 && y > height / 4 && y < height / 2) {
                v = 220;
            }
            if (x > 2 * width / 3 && y > 2 * height / 3) { v = 30; }
            // +- 8 grey levels of noise.
            v = (v + rng.uniform(0, 16)) & 0xFF;
            image[std::size_t{y} * width + x] = static_cast<std::uint8_t>(v);
        }
    }
    return image;
}

std::vector<std::uint8_t> SusanTraceGenerator::smooth_reference(
    const std::vector<std::uint8_t>& image, std::uint32_t width, std::uint32_t height,
    std::uint32_t radius, std::uint8_t threshold) {
    REALM_EXPECTS(image.size() == std::size_t{width} * height, "image size mismatch");
    const auto bp = make_brightness_lut(threshold);
    const auto dp = make_spatial_lut(radius);
    const std::uint32_t d = 2 * radius + 1;
    std::vector<std::uint8_t> out = image; // borders stay unsmoothed

    for (std::uint32_t y = radius; y + radius < height; ++y) {
        for (std::uint32_t x = radius; x + radius < width; ++x) {
            const std::uint8_t center = image[std::size_t{y} * width + x];
            std::uint64_t area = 0;
            std::uint64_t total = 0;
            for (std::uint32_t j = 0; j < d; ++j) {
                for (std::uint32_t i = 0; i < d; ++i) {
                    const std::uint32_t px = x + i - radius;
                    const std::uint32_t py = y + j - radius;
                    const std::uint8_t v = image[std::size_t{py} * width + px];
                    const std::uint32_t diff =
                        static_cast<std::uint32_t>(std::abs(int{v} - int{center}));
                    const std::uint64_t w = std::uint64_t{dp[std::size_t{j} * d + i]} * bp[diff];
                    area += w;
                    total += w * v;
                }
            }
            // Exclude the center's self-contribution (as the original does).
            const std::uint64_t center_w = std::uint64_t{dp[(std::size_t{radius}) * d + radius]} *
                                           bp[0];
            const std::uint64_t denom = area - center_w;
            if (denom == 0) {
                out[std::size_t{y} * width + x] = center;
            } else {
                out[std::size_t{y} * width + x] = static_cast<std::uint8_t>(
                    (total - center_w * center + denom / 2) / denom);
            }
        }
    }
    return out;
}

SusanTraceGenerator::SusanTraceGenerator(SusanConfig config) : cfg_{config} {
    REALM_EXPECTS(cfg_.width > 2 * cfg_.mask_radius && cfg_.height > 2 * cfg_.mask_radius,
                  "image smaller than the smoothing window");
    input_ = make_image(cfg_.width, cfg_.height, cfg_.image_seed);
    run_kernel();
}

void SusanTraceGenerator::run_kernel() {
    const auto bp = make_brightness_lut(cfg_.threshold);
    const auto dp = make_spatial_lut(cfg_.mask_radius);
    const std::uint32_t r = cfg_.mask_radius;
    const std::uint32_t d = 2 * r + 1;
    const std::uint32_t w = cfg_.width;
    output_ = input_;

    FilterCache l1{cfg_.filter_cache_bytes, cfg_.filter_line_bytes};
    std::uint64_t compute_q = 0; ///< accumulated quarter cycles since last op
    std::uint64_t pending_store_word = ~std::uint64_t{0};

    const auto emit = [&](MemOp::Kind kind, axi::Addr addr, std::uint32_t bytes) {
        if (cfg_.max_ops != 0 && ops_.size() >= cfg_.max_ops) { return; }
        MemOp op;
        op.kind = kind;
        op.addr = addr;
        op.bytes = bytes;
        op.compute_cycles = static_cast<std::uint32_t>(compute_q / 4);
        compute_q %= 4;
        ops_.push_back(op);
        (kind == MemOp::Kind::kLoad ? emitted_loads_ : emitted_stores_) += 1;
    };

    const auto load = [&](axi::Addr addr) {
        if (l1.access(addr)) {
            ++filtered_loads_;
            compute_q += cfg_.filtered_load_quarter_cycles;
        } else {
            emit(MemOp::Kind::kLoad, addr & ~axi::Addr{7}, 8);
        }
    };

    for (std::uint32_t y = r; y + r < cfg_.height; ++y) {
        for (std::uint32_t x = r; x + r < w; ++x) {
            const std::size_t center_idx = std::size_t{y} * w + x;
            const std::uint8_t center = input_[center_idx];
            load(cfg_.image_base + center_idx);
            std::uint64_t area = 0;
            std::uint64_t total = 0;
            for (std::uint32_t j = 0; j < d; ++j) {
                for (std::uint32_t i = 0; i < d; ++i) {
                    const std::size_t idx = std::size_t{y + j - r} * w + (x + i - r);
                    const std::uint8_t v = input_[idx];
                    load(cfg_.image_base + idx);
                    const std::uint32_t diff =
                        static_cast<std::uint32_t>(std::abs(int{v} - int{center}));
                    load(cfg_.lut_base + diff * 2); // brightness LUT (16-bit entries)
                    const std::uint64_t weight =
                        std::uint64_t{dp[std::size_t{j} * d + i]} * bp[diff];
                    area += weight;
                    total += weight * v;
                    ++taps_;
                    compute_q += cfg_.compute_quarter_cycles_per_tap;
                }
            }
            const std::uint64_t center_w =
                std::uint64_t{dp[(std::size_t{r}) * d + r]} * bp[0];
            const std::uint64_t denom = area - center_w;
            output_[center_idx] =
                denom == 0 ? center
                           : static_cast<std::uint8_t>((total - center_w * center + denom / 2) /
                                                       denom);
            // Write-through store, merged to bus words by the store buffer.
            const axi::Addr word = (cfg_.out_base + center_idx) & ~axi::Addr{7};
            if (word != pending_store_word) {
                if (pending_store_word != ~std::uint64_t{0}) {
                    emit(MemOp::Kind::kStore, pending_store_word, 8);
                }
                pending_store_word = word;
            }
            compute_q += 2; // normalization division etc.
        }
    }
    if (pending_store_word != ~std::uint64_t{0}) {
        emit(MemOp::Kind::kStore, pending_store_word, 8);
    }
}

std::shared_ptr<const SusanTraceGenerator> shared_susan_trace(const SusanConfig& config) {
    thread_local std::shared_ptr<const SusanTraceGenerator> last;
    if (last == nullptr || last->config() != config) {
        last = std::make_shared<const SusanTraceGenerator>(config);
    }
    return last;
}

} // namespace realm::traffic
