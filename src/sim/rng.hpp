/// \file
/// \brief Deterministic pseudo-random number generation (xoshiro256**).
///
/// Simulations must be bit-reproducible across platforms and standard-library
/// versions, so we avoid `std::mt19937`-with-`std::uniform_int_distribution`
/// (whose mapping is implementation-defined) and ship a fixed algorithm with
/// explicit range mapping.
#pragma once

#include "sim/check.hpp"

#include <cstdint>
#include <string_view>

namespace realm::sim {

/// Derives a per-run RNG seed from a scenario name and a sweep-point index.
///
/// Parallel sweep runners must not derive seeds from any shared or global
/// state (thread ids, launch order, a process-wide RNG): two runs of the
/// same sweep with different thread counts would then diverge. This mixes
/// only the *identity* of the point — FNV-1a over the name, then a
/// splitmix64 finalizer over the index — so seeds are stable across
/// platforms, thread counts, and execution order.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::string_view scenario_name,
                                                  std::uint64_t sweep_index) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a offset basis
    for (const char c : scenario_name) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL; // FNV-1a prime
    }
    std::uint64_t z = h + (sweep_index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Rng {
public:
    /// Seeds via splitmix64 so any 64-bit seed yields a well-mixed state.
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) { reseed(seed); }

    void reseed(std::uint64_t seed) noexcept {
        std::uint64_t x = seed;
        for (auto& word : state_) {
            // splitmix64 step
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /// Next raw 64-bit value.
    std::uint64_t next() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform in [lo, hi] inclusive. Uses rejection-free Lemire mapping;
    /// bias is negligible for simulation purposes (< 2^-64 per draw).
    std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) noexcept {
        if (lo >= hi) { return lo; }
        const std::uint64_t span = hi - lo + 1;
        const auto wide =
            static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(span);
        return lo + static_cast<std::uint64_t>(wide >> 64);
    }

    /// Bernoulli draw with probability numerator/denominator.
    bool chance(std::uint32_t numerator, std::uint32_t denominator) noexcept {
        if (numerator == 0 || denominator == 0) { return false; }
        if (numerator >= denominator) { return true; }
        return uniform(0, denominator - 1) < numerator;
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4]{};
};

} // namespace realm::sim
