/// \file
/// \brief Memory-operation workloads replayed by `CoreModel`.
///
/// A workload is the interconnect-visible access stream of a program: the
/// loads/stores that miss the core's private caches, with the compute
/// cycles between them. Synthetic generators cover streaming, random, and
/// dependency-chained patterns; `SusanTraceGenerator` (susan.hpp) generates
/// the trace of a real MiBench image kernel.
#pragma once

#include "axi/types.hpp"
#include "sim/rng.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace realm::traffic {

/// One interconnect-visible memory operation.
struct MemOp {
    enum class Kind : std::uint8_t { kLoad, kStore };

    Kind kind = Kind::kLoad;
    axi::Addr addr = 0;
    std::uint32_t bytes = 8;
    /// Compute cycles the core spends before issuing this operation.
    std::uint32_t compute_cycles = 0;

    bool operator==(const MemOp&) const = default;
};

/// Sequence of memory operations consumed by a core model.
class Workload {
public:
    virtual ~Workload() = default;

    /// Next operation, or nullopt when the program finished.
    virtual std::optional<MemOp> next() = 0;
};

/// Replay of a pre-recorded operation list (the output format of trace
/// generators). The list is shared read-only: replays of one trace hold one
/// copy, and each keeps only its position.
class TraceWorkload : public Workload {
public:
    explicit TraceWorkload(std::shared_ptr<const std::vector<MemOp>> ops)
        : ops_{std::move(ops)} {}

    std::optional<MemOp> next() override {
        if (pos_ >= ops_->size()) { return std::nullopt; }
        return (*ops_)[pos_++];
    }

private:
    std::shared_ptr<const std::vector<MemOp>> ops_;
    std::size_t pos_ = 0;
};

/// Sequential sweep over [base, base+bytes): a memcpy/stream kernel.
class StreamWorkload : public Workload {
public:
    struct Config {
        axi::Addr base = 0;
        std::uint64_t bytes = 4096;
        std::uint32_t op_bytes = 8;
        std::uint32_t stride_bytes = 8;
        std::uint32_t compute_cycles = 0;
        /// Stores per 16 operations (0 = read-only, 16 = write-only).
        std::uint32_t store_ratio16 = 0;
        std::uint32_t repeat = 1;
    };

    explicit StreamWorkload(Config cfg) : cfg_{cfg} {}

    std::optional<MemOp> next() override;

private:
    Config cfg_;
    std::uint64_t offset_ = 0;
    std::uint32_t iteration_ = 0;
    std::uint64_t op_index_ = 0;
};

/// Uniform-random accesses over a range (cache-hostile traffic).
class RandomWorkload : public Workload {
public:
    struct Config {
        axi::Addr base = 0;
        std::uint64_t bytes = 1 << 20;
        std::uint32_t op_bytes = 8;
        std::uint32_t compute_cycles = 0;
        std::uint32_t store_ratio16 = 4;
        std::uint64_t num_ops = 10000;
        std::uint64_t seed = 1;
    };

    explicit RandomWorkload(Config cfg) : cfg_{cfg}, rng_{cfg.seed} {}

    std::optional<MemOp> next() override;

private:
    Config cfg_;
    sim::Rng rng_;
    std::uint64_t issued_ = 0;
};

/// Dependent-load chain (each address comes from the previous load):
/// latency-bound traffic, the worst case for contended interconnects.
class PointerChaseWorkload : public Workload {
public:
    struct Config {
        axi::Addr base = 0;
        std::uint64_t slots = 1024;     ///< chain length (8-byte slots)
        std::uint32_t hops = 4096;      ///< loads to issue
        std::uint64_t seed = 7;
    };

    explicit PointerChaseWorkload(Config cfg);

    std::optional<MemOp> next() override;

    /// The permutation backing the chain; tests use it to pre-load memory.
    [[nodiscard]] const std::vector<std::uint64_t>& chain() const noexcept { return chain_; }

private:
    Config cfg_;
    std::vector<std::uint64_t> chain_;
    std::uint32_t hop_ = 0;
    std::uint64_t cursor_ = 0;
};

} // namespace realm::traffic
