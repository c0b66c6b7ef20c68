/// \file
/// \brief In-order core model with blocking loads and a draining store buffer.
///
/// Stands in for CVA6 in the paper's evaluation: latency-sensitive,
/// fine-granular traffic. Loads block the pipeline until the last R beat
/// returns (the property that makes interconnect contention catastrophic);
/// stores retire into a small buffer drained in the background.
#pragma once

#include "axi/channel.hpp"
#include "traffic/workload.hpp"

#include "mon/quantile.hpp"
#include "sim/component.hpp"
#include "sim/stats.hpp"

#include <cstdint>
#include <deque>
#include <optional>

namespace realm::traffic {

struct CoreConfig {
    std::uint32_t bus_bytes = 8;
    axi::IdT read_id = 0;
    axi::IdT write_id = 0;
    std::uint32_t store_buffer_depth = 4;
};

class CoreModel : public sim::Component {
public:
    CoreModel(sim::SimContext& ctx, std::string name, axi::AxiChannel& port,
              Workload& workload, CoreConfig config = {});

    void tick() override;

    /// Program finished and all outstanding transactions retired.
    [[nodiscard]] bool done() const noexcept { return done_; }
    /// Cycle at which `done()` became true.
    [[nodiscard]] sim::Cycle finish_cycle() const noexcept { return finish_cycle_; }

    /// \name Statistics
    ///@{
    /// Load latencies: exact count, sum, min and max, and quantiles that
    /// overestimate by at most `mon::QuantileSketch::kRelativeErrorBound`.
    [[nodiscard]] const mon::QuantileSketch& load_latency() const noexcept { return load_lat_; }
    [[nodiscard]] const sim::LatencyStat& store_latency() const noexcept { return store_lat_; }
    [[nodiscard]] std::uint64_t loads_retired() const noexcept { return loads_; }
    [[nodiscard]] std::uint64_t stores_retired() const noexcept { return stores_; }
    [[nodiscard]] std::uint64_t compute_cycles() const noexcept { return compute_cycles_; }
    [[nodiscard]] std::uint64_t load_stall_cycles() const noexcept { return load_stalls_; }
    ///@}

private:
    void drain_stores();
    void collect_responses();
    void advance_program();

    axi::ManagerView port_;
    Workload* workload_;
    CoreConfig cfg_;

    /// Current op being prepared/waited on.
    std::optional<MemOp> current_;
    std::uint32_t compute_left_ = 0;
    bool waiting_load_ = false;
    sim::Cycle load_issued_at_ = 0;
    std::uint32_t load_beats_left_ = 0;

    struct PendingStore {
        MemOp op;
        bool aw_sent = false;
        std::uint32_t beats_left = 0;
        sim::Cycle issued_at = 0;
    };
    std::deque<PendingStore> store_buffer_;
    std::deque<sim::Cycle> stores_awaiting_b_;

    bool program_done_ = false;
    bool done_ = false;
    sim::Cycle finish_cycle_ = 0;

    mon::QuantileSketch load_lat_;
    sim::LatencyStat store_lat_;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t compute_cycles_ = 0;
    std::uint64_t load_stalls_ = 0;
};

} // namespace realm::traffic
