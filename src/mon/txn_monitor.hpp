/// \file
/// \brief Per-manager online transaction monitor (the monitoring plane's FSM).
///
/// A TxnMonitor taps the port a manager (traffic model) drives: one push
/// observer on each of the port's five links sees every AW/W/AR the manager
/// issues and every B/R the fabric returns, stamped at the producer's cycle.
/// It holds no flit and adds no cycle, so a monitored run simulates exactly
/// the unmonitored one. From the observed handshakes it tracks every
/// outstanding AW/AR burst online and maintains per-tenant counters:
///
///  - **timeouts**: a burst outstanding longer than `timeout_cycles` (flagged
///    once per burst; late completions still record their latency);
///  - **orphaned bursts**: a B/R-last response with no matching request, or a
///    request still incomplete when the run ends (`finalize()`);
///  - **protocol stalls**: a request left valid and not ready at the port for
///    `stall_cycles` consecutive cycles (the fabric would not accept it);
///  - **W-production gaps**: an accepted write burst whose manager produced no
///    W beat for `stall_cycles` cycles while the port held none -- the
///    signature of the W-stall DoS attack.
///
/// The component itself keeps only what needs a clock: the held accounting
/// (valid and not ready, read from the port after its consumer ticked) and
/// the W-gap, timeout and window deadlines. It must therefore be built after
/// the port's consumer, and on the shard of the port's producers, which run
/// its observers.
///
/// Completed burst latencies stream into fixed-memory QuantileSketches (one
/// read, one write), giving P50/P99/P999 for every manager at ~9 KiB each.
/// Each monitor lives on one shard of the sharded kernel; sketches are merged
/// single-threaded at harvest, so results stay bit-identical and race-free.
///
/// Detection (see mon/detector.hpp) is evaluated online over fixed windows of
/// `window_cycles`: windowed bytes/cycle >= `bw_threshold`, windowed held
/// fraction >= `held_threshold`, windowed mean outstanding bursts >=
/// `occ_threshold`, or any W-gap flags the manager. All event
/// cycles are deterministic functions of simulated history -- never of when
/// the activity-aware scheduler happened to tick the monitor -- so verdicts
/// and time-to-detect are identical across schedulers and shard counts.
#pragma once

#include "axi/channel.hpp"
#include "mon/detector.hpp"
#include "mon/quantile.hpp"
#include "sim/component.hpp"

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace realm::mon {

/// Detection / pathology thresholds. They affect results only when monitors
/// are enabled, but `config_hash` mixes them either way.
struct TxnMonitorConfig {
    /// Outstanding burst age that counts as a timeout.
    sim::Cycle timeout_cycles = 50'000;
    /// Held-handshake streak and W-production gap that count as a stall.
    /// Must stay below the W-stall attack's 64-cycle trickle to catch it.
    sim::Cycle stall_cycles = 48;
    /// Detection window length for the bandwidth / backpressure signals.
    sim::Cycle window_cycles = 1024;
    /// Windowed bytes/cycle (reads + writes) at or above this flags kSignalBandwidth.
    double bw_threshold = 6.0;
    /// Windowed held fraction at or above this flags kSignalBackpressure.
    double held_threshold = 0.75;
    /// Windowed mean in-demand bursts at or above this flags kSignalOccupancy.
    /// Reads count from AR to R-last, writes only while their W data is still
    /// being produced (AW to W-last at the boundary): waiting on a late B is
    /// congestion suffered, not fabric demand, so a victim queueing behind an
    /// attack never inherits the attacker's signature. A blocking core can
    /// never average above 1, while a buffered hog keeps its pipeline pinned
    /// full however congested the fabric gets: the gap separates them.
    double occ_threshold = 1.5;
};

class TxnMonitor : public sim::Component {
public:
    /// Taps `port`, whose five links must carry no push observer yet.
    TxnMonitor(sim::SimContext& ctx, std::string name, axi::AxiChannel& port,
               TxnMonitorConfig config = {});

    void tick() override;

    /// Close the books at harvest: evaluates the trailing partial window and
    /// counts still-outstanding bursts as orphaned requests. Idempotent.
    void finalize();

    /// \name Latency telemetry
    ///@{
    [[nodiscard]] const QuantileSketch& read_sketch() const noexcept { return read_sketch_; }
    [[nodiscard]] const QuantileSketch& write_sketch() const noexcept { return write_sketch_; }
    /// Reads and writes folded into one distribution.
    [[nodiscard]] QuantileSketch combined_sketch() const {
        QuantileSketch s = read_sketch_;
        s.merge(write_sketch_);
        return s;
    }
    ///@}

    /// \name Per-tenant counters
    ///@{
    [[nodiscard]] std::uint64_t aw_count() const noexcept { return aw_count_; }
    [[nodiscard]] std::uint64_t ar_count() const noexcept { return ar_count_; }
    [[nodiscard]] std::uint64_t bytes_read() const noexcept { return bytes_read_; }
    [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }
    [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
    [[nodiscard]] std::uint64_t orphan_responses() const noexcept { return orphan_responses_; }
    [[nodiscard]] std::uint64_t orphan_requests() const noexcept { return orphan_requests_; }
    [[nodiscard]] std::uint64_t stall_events() const noexcept { return stall_events_; }
    [[nodiscard]] std::uint64_t w_gap_events() const noexcept { return w_gap_events_; }
    [[nodiscard]] std::uint64_t held_cycles() const noexcept { return held_cycles_; }
    /// Mean outstanding bursts since attach, in 1/1000ths (set by finalize()).
    [[nodiscard]] std::uint64_t occupancy_milli() const noexcept { return occ_avg_milli_; }
    ///@}

    /// \name Detector verdict
    ///@{
    [[nodiscard]] bool flagged() const noexcept { return signals_ != kSignalNone; }
    [[nodiscard]] std::uint8_t signals() const noexcept { return signals_; }
    /// Cycles from monitor attach to the first firing signal (0 if never).
    [[nodiscard]] sim::Cycle time_to_detect() const noexcept {
        return first_detect_ == sim::kNoCycle ? 0 : first_detect_ - attach_cycle_;
    }
    ///@}

private:
    struct Outstanding {
        sim::Cycle issued = 0;
        bool timed_out = false;
    };
    struct WBurst {
        std::uint32_t beats_left = 0;
        std::uint32_t beat_bytes = 0;
    };
    /// Per-ID outstanding-burst FIFO. Managers use a handful of distinct AXI
    /// IDs, so a linear-scanned flat vector beats a hash map on the per-flit
    /// hot path (the dominant monitor cost on saturated fabrics).
    struct OpenQueue {
        axi::IdT id = 0;
        std::deque<Outstanding> fifo;
    };

    /// Installs `Observe` as the push observer of `link`.
    template <typename T, void (TxnMonitor::*Observe)(const T&)>
    void tap(sim::Link<T>& link) {
        link.set_push_observer(
            {[](void* self, const T& f) { (static_cast<TxnMonitor*>(self)->*Observe)(f); },
             this});
    }
    /// \name Push observers: the handshakes the manager issues (AW/W/AR) and
    /// the fabric returns (B/R), at the producer's cycle.
    ///@{
    void on_aw(const axi::AwFlit& f);
    void on_w(const axi::WFlit& f);
    void on_ar(const axi::ArFlit& f);
    void on_b(const axi::BFlit& f);
    void on_r(const axi::RFlit& f);
    ///@}
    void open_burst(std::vector<OpenQueue>& open, axi::IdT id);
    void accrue_occupancy(sim::Cycle to);
    void account_held();
    void check_timeouts();
    void check_w_gap();
    void roll_windows();
    void close_window(sim::Cycle end_cycle);
    void flag(std::uint8_t signal, sim::Cycle at);
    void update_activity();

    const axi::AxiChannel* port_;
    TxnMonitorConfig cfg_;
    sim::Cycle attach_cycle_ = 0;

    std::deque<Outstanding>& open_fifo(std::vector<OpenQueue>& open, axi::IdT id);
    std::deque<Outstanding>* find_fifo(std::vector<OpenQueue>& open, axi::IdT id);

    std::vector<OpenQueue> write_open_;
    std::vector<OpenQueue> read_open_;
    std::vector<std::pair<axi::IdT, std::uint32_t>> r_bytes_per_beat_;
    std::deque<WBurst> w_bursts_;
    sim::Cycle last_w_cycle_ = 0;
    bool w_gap_flagged_ = false;

    QuantileSketch read_sketch_;
    QuantileSketch write_sketch_;

    std::uint64_t aw_count_ = 0;
    std::uint64_t ar_count_ = 0;
    std::uint64_t bytes_read_ = 0;
    std::uint64_t bytes_written_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t orphan_responses_ = 0;
    std::uint64_t orphan_requests_ = 0;
    std::uint64_t stall_events_ = 0;
    std::uint64_t w_gap_events_ = 0;
    std::uint64_t held_cycles_ = 0;
    sim::Cycle next_timeout_deadline_ = sim::kNoCycle;

    // Held-handshake streaks per request channel: {streak start, reported}.
    sim::Cycle held_streak_start_[3] = {sim::kNoCycle, sim::kNoCycle, sim::kNoCycle};
    bool held_streak_reported_[3] = {false, false, false};

    sim::Cycle window_start_ = 0;
    std::uint64_t window_bytes_ = 0;
    std::uint64_t window_held_ = 0;

    // Outstanding-burst occupancy, integrated event-driven so the lazy
    // scheduler stays exact: the count only changes in awake cycles.
    std::uint64_t occ_count_ = 0;
    sim::Cycle occ_last_cycle_ = 0;
    std::uint64_t window_occ_ = 0;        ///< burst-cycles in the open window
    std::uint64_t occ_integral_total_ = 0; ///< burst-cycles in closed windows
    std::uint64_t occ_avg_milli_ = 0;

    std::uint8_t signals_ = kSignalNone;
    sim::Cycle first_detect_ = sim::kNoCycle;
    bool finalized_ = false;
};

} // namespace realm::mon
