/// \file
/// \brief Transaction tracer: records AXI channel activity to a CSV stream.
///
/// Observability tooling complementing the M&R unit's aggregate statistics:
/// splice an `AxiTracer` into any channel and get a per-beat, cycle-stamped
/// log for offline analysis (waveform-style debugging without a waveform
/// dump). Pass-through component, one cycle per hop like any other, and
/// idle-aware: tracing costs nothing while the channel is quiet.
#pragma once

#include "axi/channel.hpp"

#include "sim/component.hpp"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace realm::axi {

/// One recorded beat.
struct TraceRecord {
    sim::Cycle cycle = 0;
    enum class Channel : std::uint8_t { kAw, kW, kB, kAr, kR } channel = Channel::kAw;
    IdT id = 0;
    Addr addr = 0;      ///< AW/AR only
    std::uint8_t len = 0;
    bool last = false;  ///< W/R only
    Resp resp = Resp::kOkay; ///< B/R only
};

[[nodiscard]] constexpr const char* to_string(TraceRecord::Channel c) noexcept {
    switch (c) {
    case TraceRecord::Channel::kAw: return "AW";
    case TraceRecord::Channel::kW: return "W";
    case TraceRecord::Channel::kB: return "B";
    case TraceRecord::Channel::kAr: return "AR";
    case TraceRecord::Channel::kR: return "R";
    }
    return "?";
}

class AxiTracer : public sim::Component {
public:
    /// \param capacity  retained records (ring buffer; oldest dropped).
    AxiTracer(sim::SimContext& ctx, std::string name, AxiChannel& upstream,
              AxiChannel& downstream, std::size_t capacity = 65536);

    void tick() override;

    [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
        return records_;
    }
    [[nodiscard]] std::uint64_t total_recorded() const noexcept { return total_; }
    [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

    /// Writes `cycle,channel,id,addr,len,last,resp` CSV lines.
    void write_csv(std::ostream& os) const;

private:
    void record(TraceRecord r);
    void update_activity();

    SubordinateView up_;
    ManagerView down_;
    std::size_t capacity_;
    std::vector<TraceRecord> records_;
    std::uint64_t total_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace realm::axi
