/// \file
/// \brief Last-level cache: set-associative, write-back, write-allocate,
///        with an AXI subordinate port (from the crossbar) and an AXI
///        manager port (to DRAM) for refills and writebacks.
///
/// Mirrors the role of Cheshire's LLC in the paper's evaluation: the hot
/// shared subordinate both the core and the DSA DMA hammer. The R and W
/// datapaths are independent pipelines (as the AXI channels are), each
/// streaming one beat per cycle; hits are pipelined across bursts so
/// back-to-back single-beat transactions sustain full bandwidth. Service
/// within each direction is in-order and burst-granular — so a long burst
/// ahead in the queue delays a later fine-granular request by its full
/// length, which (with the crossbar's burst-granular round-robin) produces
/// the uncontrolled-contention worst case of Figure 6a. Misses are handled
/// by a single blocking miss engine (refill + optional writeback).
#pragma once

#include "axi/channel.hpp"
#include "mem/sparse_memory.hpp"

#include "sim/component.hpp"

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace realm::mem {

struct LlcConfig {
    std::uint32_t line_bytes = 64;
    std::uint32_t ways = 8;
    std::uint32_t sets = 512;     ///< 8 x 512 x 64 B = 256 KiB default
    std::uint32_t bus_bytes = 8;  ///< both ports, 64-bit
    sim::Cycle hit_latency = 2;   ///< request initiation -> first beat on a hit
    /// Minimum spacing between successive request *initiations* (descriptor
    /// processing rate: tag lookup and hit computation are shared between
    /// the read and write pipelines and are not fully pipelined, as in
    /// axi_llc). Long bursts amortize it; back-to-back single-beat requests
    /// are initiation-limited.
    sim::Cycle request_interval = 1;
    std::uint32_t max_outstanding = 8;

    [[nodiscard]] std::uint32_t line_beats() const noexcept { return line_bytes / bus_bytes; }
};

class Llc : public sim::Component {
public:
    /// \param upstream   channel whose manager side is the crossbar.
    /// \param downstream channel whose subordinate side is the DRAM slave.
    Llc(sim::SimContext& ctx, std::string name, axi::AxiChannel& upstream,
        axi::AxiChannel& downstream, LlcConfig config = {});

    void tick() override;

    /// Installs every line covering [base, base+bytes) as valid and clean,
    /// with data pulled from `image`. Zero-time warm-up used by benches to
    /// reproduce the paper's "LLC is hot" precondition.
    void warm_range(axi::Addr base, std::uint64_t bytes, const SparseMemory& image);

    /// True when a line holding `addr` is currently resident.
    [[nodiscard]] bool contains(axi::Addr addr) const noexcept;

    /// \name Statistics
    ///@{
    [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
    [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
    [[nodiscard]] std::uint64_t writebacks() const noexcept { return writebacks_; }
    [[nodiscard]] std::uint64_t reads_served() const noexcept { return reads_served_; }
    [[nodiscard]] std::uint64_t writes_served() const noexcept { return writes_served_; }
    ///@}

    [[nodiscard]] const LlcConfig& config() const noexcept { return config_; }

private:
    /// Miss-engine phases (one miss handled at a time).
    enum class MissState : std::uint8_t {
        kIdle,
        kWbAw,     ///< writeback: address phase
        kWbW,      ///< writeback: data phase
        kWbB,      ///< writeback: wait for DRAM response
        kRefillAr, ///< refill: address phase
        kRefillR,  ///< refill: collecting beats
    };

    struct WayState {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t last_use = 0;
    };

    struct ReadJob {
        axi::ArFlit ar;
        sim::Cycle accepted_at = 0;
        std::uint32_t next_beat = 0;
        sim::Cycle first_beat_at = sim::kNoCycle; ///< set when reaching the head
    };
    struct WriteJob {
        axi::AwFlit aw;
        sim::Cycle accepted_at = 0;
        std::uint32_t beats_seen = 0;
        sim::Cycle ready_at = sim::kNoCycle; ///< set at initiation
    };
    struct PendingB {
        axi::IdT id = 0;
        sim::Cycle ready_at = 0;
    };

    /// \name Geometry helpers
    ///@{
    [[nodiscard]] std::uint64_t line_index(axi::Addr addr) const noexcept {
        return addr / config_.line_bytes;
    }
    [[nodiscard]] std::uint32_t set_of(std::uint64_t line) const noexcept {
        return static_cast<std::uint32_t>(line % config_.sets);
    }
    [[nodiscard]] std::uint64_t tag_of(std::uint64_t line) const noexcept {
        return line / config_.sets;
    }
    [[nodiscard]] int find_way(std::uint32_t set, std::uint64_t tag) const noexcept;
    [[nodiscard]] std::uint32_t victim_way(std::uint32_t set) const noexcept;
    [[nodiscard]] std::uint8_t* line_data(std::uint32_t set, std::uint32_t way) noexcept;
    ///@}

    void accept_requests();
    void serve_read();
    void serve_write();
    void send_b();
    void advance_miss_engine();
    void update_activity();
    /// Requests miss handling for the line containing `addr`; returns true
    /// if the engine accepted (it handles one miss at a time).
    bool start_miss(axi::Addr addr);

    axi::SubordinateView up_;
    axi::ManagerView down_;
    LlcConfig config_;

    std::vector<WayState> tags_;       ///< sets x ways
    /// sets x ways x line_bytes, left uninitialised: no byte of a way is read
    /// before `warm_range` or a refill writes the whole line and sets the way
    /// `valid`. Hits go through `find_way`, which checks `valid`, and a
    /// writeback reads only a valid, dirty way. `tags_` stays zeroed because
    /// `valid` is read.
    std::unique_ptr<std::uint8_t[]> data_;
    std::uint64_t use_tick_ = 0;

    std::deque<ReadJob> read_jobs_;
    std::deque<WriteJob> write_jobs_;
    std::deque<PendingB> b_queue_;
    sim::Cycle read_stream_free_at_ = 0;
    sim::Cycle next_init_at_ = 0; ///< shared request-initiation pipeline

    MissState miss_state_ = MissState::kIdle;
    std::uint64_t miss_line_ = 0;
    std::uint32_t miss_set_ = 0;
    std::uint32_t miss_way_ = 0;
    std::uint32_t refill_beats_seen_ = 0;
    std::uint32_t wb_beats_sent_ = 0;
    axi::Addr wb_addr_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t reads_served_ = 0;
    std::uint64_t writes_served_ = 0;
};

} // namespace realm::mem
