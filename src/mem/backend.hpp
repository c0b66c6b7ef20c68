/// \file
/// \brief Storage + timing backends plugged into the AXI memory subordinate.
#pragma once

#include "axi/types.hpp"
#include "mem/sparse_memory.hpp"
#include "sim/types.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace realm::mem {

/// Storage and service-timing model behind an `AxiMemSlave`.
/// `access_latency` may mutate internal timing state (e.g. DRAM row
/// buffers); it is called once per accepted burst at acceptance time.
class MemoryBackend {
public:
    virtual ~MemoryBackend() = default;

    virtual void read(axi::Addr addr, std::span<std::uint8_t> out) = 0;
    virtual void write(axi::Addr addr, std::span<const std::uint8_t> in, axi::Strb strb) = 0;

    /// Cycles from burst acceptance to first data beat (read) or from last
    /// write beat to response (write).
    virtual sim::Cycle access_latency(axi::Addr addr, std::uint32_t beats, bool is_write,
                                      sim::Cycle now) = 0;
};

/// Fixed-latency on-chip SRAM / scratchpad.
class SramBackend final : public MemoryBackend {
public:
    explicit SramBackend(sim::Cycle read_latency = 1, sim::Cycle write_latency = 1)
        : read_latency_{read_latency}, write_latency_{write_latency} {}

    void read(axi::Addr addr, std::span<std::uint8_t> out) override { store_.read(addr, out); }
    void write(axi::Addr addr, std::span<const std::uint8_t> in, axi::Strb strb) override {
        store_.write(addr, in, strb);
    }
    sim::Cycle access_latency(axi::Addr, std::uint32_t, bool is_write, sim::Cycle) override {
        return is_write ? write_latency_ : read_latency_;
    }

    [[nodiscard]] SparseMemory& store() noexcept { return store_; }
    [[nodiscard]] const SparseMemory& store() const noexcept { return store_; }

private:
    SparseMemory store_;
    sim::Cycle read_latency_;
    sim::Cycle write_latency_;
};

/// Timing parameters of the banked row-buffer DRAM model.
struct DramTiming {
    sim::Cycle row_hit = 12;      ///< CAS-only access.
    sim::Cycle row_miss = 36;     ///< Precharge + activate + CAS.
    std::uint32_t banks = 8;      ///< Interleaved on row-sized stripes.
    std::uint32_t row_bytes = 2048;
};

/// DRAM with per-bank open-row tracking and bank-busy serialization. The
/// controller services requests in order (FCFS), which is pessimistic but
/// predictable — appropriate for a real-time evaluation substrate.
class DramBackend final : public MemoryBackend {
public:
    explicit DramBackend(DramTiming timing = {});

    void read(axi::Addr addr, std::span<std::uint8_t> out) override { store_.read(addr, out); }
    void write(axi::Addr addr, std::span<const std::uint8_t> in, axi::Strb strb) override {
        store_.write(addr, in, strb);
    }
    sim::Cycle access_latency(axi::Addr addr, std::uint32_t beats, bool is_write,
                              sim::Cycle now) override;

    [[nodiscard]] SparseMemory& store() noexcept { return store_; }
    [[nodiscard]] std::uint64_t row_hits() const noexcept { return row_hits_; }
    [[nodiscard]] std::uint64_t row_misses() const noexcept { return row_misses_; }

private:
    SparseMemory store_;
    DramTiming timing_;
    std::vector<std::int64_t> open_row_;  ///< -1 = closed
    std::vector<sim::Cycle> bank_free_at_;
    std::uint64_t row_hits_ = 0;
    std::uint64_t row_misses_ = 0;
};

} // namespace realm::mem
