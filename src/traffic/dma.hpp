/// \file
/// \brief DSA DMA engine: long-burst, deeply pipelined bulk copies.
///
/// Models the accelerator DMA of the paper's case study: double-buffered
/// chunk transfers of up to 256 beats that saturate the interconnect and —
/// through burst-granular arbitration — starve the core. Also provides the
/// *malicious* behaviours studied in the related work: reserving write
/// bandwidth before data is available and trickling the data out
/// (denial-of-service by stalling, cf. Cut&Forward [14]).
#pragma once

#include "axi/channel.hpp"

#include "sim/component.hpp"
#include "sim/stats.hpp"

#include <cstdint>
#include <deque>
#include <vector>

namespace realm::traffic {

struct DmaConfig {
    std::uint32_t bus_bytes = 8;
    std::uint32_t burst_beats = 256;       ///< chunk size issued per AR/AW
    std::uint32_t num_buffers = 2;         ///< double buffering by default
    std::uint32_t max_outstanding_reads = 2;
    std::uint32_t max_outstanding_writes = 2;
    /// Cycles inserted between W beats (0 = full rate). Large values with
    /// `reserve_before_data` model the stalling-manager DoS attack.
    std::uint32_t w_stall_cycles = 0;
    /// Issue AW as soon as the chunk *starts* reading instead of when its
    /// data is complete (cut-through). Well-behaved DMAs keep this off.
    bool reserve_before_data = false;
};

/// One copy descriptor. With `loop` the job restarts for continuous
/// interference generation (the Fig. 6 disturbance pattern).
struct DmaJob {
    axi::Addr src = 0;
    axi::Addr dst = 0;
    std::uint64_t bytes = 0;
    bool loop = false;
};

class DmaEngine : public sim::Component {
public:
    DmaEngine(sim::SimContext& ctx, std::string name, axi::AxiChannel& port,
              DmaConfig config = {});

    void tick() override;

    /// Enqueues a copy job (FIFO).
    void push_job(const DmaJob& job);
    /// Stops a looping job after the in-flight chunks complete.
    void stop() noexcept { stop_requested_ = true; }

    /// All queued jobs complete and no chunks in flight.
    [[nodiscard]] bool idle() const noexcept;

    /// \name Statistics
    ///@{
    [[nodiscard]] std::uint64_t bytes_read() const noexcept { return bytes_read_; }
    [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }
    [[nodiscard]] std::uint64_t chunks_completed() const noexcept { return chunks_done_; }
    [[nodiscard]] const sim::LatencyStat& read_latency() const noexcept { return read_lat_; }
    [[nodiscard]] const sim::LatencyStat& write_latency() const noexcept { return write_lat_; }
    /// Average copy bandwidth in bytes/cycle over [first_activity, now].
    [[nodiscard]] double bandwidth() const noexcept;
    ///@}

private:
    enum class SlotState : std::uint8_t {
        kFree,
        kReading,  ///< AR issued, collecting R beats
        kFull,     ///< data complete, waiting to start the write
        kWriting,  ///< AW issued, streaming W beats
        kAwaitB,   ///< all data sent, waiting for the response
    };

    struct Slot {
        SlotState state = SlotState::kFree;
        axi::Addr src = 0;
        axi::Addr dst = 0;
        std::uint32_t beats = 0;
        std::uint32_t beats_read = 0;
        std::uint32_t beats_written = 0;
        bool aw_sent = false;
        sim::Cycle read_issued_at = 0;
        sim::Cycle write_issued_at = 0;
        sim::Cycle next_w_at = 0;
        std::vector<std::uint8_t> data;
    };

    void issue_reads();
    void collect_reads();
    void issue_writes();
    void stream_w_beats();
    void collect_b();

    [[nodiscard]] std::uint32_t reads_in_flight() const noexcept;
    [[nodiscard]] std::uint32_t writes_in_flight() const noexcept;

    axi::ManagerView port_;
    DmaConfig cfg_;

    std::deque<DmaJob> jobs_;
    std::uint64_t job_offset_ = 0;
    bool stop_requested_ = false;

    std::vector<Slot> slots_;
    std::deque<std::uint32_t> write_order_; ///< slots with AW sent, in AW order

    std::uint64_t bytes_read_ = 0;
    std::uint64_t bytes_written_ = 0;
    std::uint64_t chunks_done_ = 0;
    sim::LatencyStat read_lat_;
    sim::LatencyStat write_lat_;
    sim::Cycle first_activity_ = sim::kNoCycle;
};

} // namespace realm::traffic
