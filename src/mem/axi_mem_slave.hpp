/// \file
/// \brief Generic AXI4 memory subordinate: turns bursts into backend accesses.
#pragma once

#include "axi/channel.hpp"
#include "mem/backend.hpp"

#include "sim/component.hpp"
#include "sim/link.hpp"
#include "sim/stats.hpp"

#include <cstdint>
#include <deque>
#include <memory>

namespace realm::mem {

/// Configuration of an `AxiMemSlave`.
struct AxiMemSlaveConfig {
    std::uint32_t max_outstanding_reads = 8;
    std::uint32_t max_outstanding_writes = 8;
    /// Subtracted from flit addresses before hitting the backend, so the
    /// same backend image can be mapped at any bus address.
    axi::Addr base = 0;
};

/// AXI4 subordinate serving a `MemoryBackend`.
///
/// Timing: an accepted AR is serviced after `backend.access_latency(...)`
/// cycles, then streams one R beat per cycle, in acceptance order. Writes
/// apply data as W beats arrive and respond with B `access_latency` cycles
/// after the last beat, in acceptance order. Read and write datapaths are
/// independent, as the R and W channels are in AXI4.
class AxiMemSlave : public sim::Component {
public:
    AxiMemSlave(sim::SimContext& ctx, std::string name, axi::AxiChannel& channel,
                std::unique_ptr<MemoryBackend> backend, AxiMemSlaveConfig config = {});

    void tick() override;

    [[nodiscard]] MemoryBackend& backend() noexcept { return *backend_; }
    [[nodiscard]] std::uint64_t reads_served() const noexcept { return reads_served_; }
    [[nodiscard]] std::uint64_t writes_served() const noexcept { return writes_served_; }

private:
    struct ReadJob {
        axi::ArFlit ar;
        sim::Cycle ready_at = 0;
        std::uint32_t next_beat = 0;
    };
    struct WriteJob {
        axi::AwFlit aw;
        std::uint32_t beats_seen = 0;
        bool data_complete = false;
        sim::Cycle resp_ready_at = 0;
    };

    void accept_requests();
    void serve_reads();
    void serve_writes();
    void update_activity();

    axi::SubordinateView port_;
    std::unique_ptr<MemoryBackend> backend_;
    AxiMemSlaveConfig config_;

    std::deque<ReadJob> read_jobs_;
    std::deque<WriteJob> write_jobs_;

    std::uint64_t reads_served_ = 0;
    std::uint64_t writes_served_ = 0;
};

} // namespace realm::mem
