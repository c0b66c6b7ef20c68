/// \file
/// \brief Write transaction buffer (Figure 3b of the paper).
///
/// A manager that wins write arbitration but delays its data stalls the
/// interconnect's W channel (which is reserved at AW-grant time) — the
/// denial-of-service vector analysed in Cut&Forward [14]. This buffer
/// forwards a (fragmented) write burst's AW **only once all of its data is
/// buffered**, so downstream bandwidth is never reserved for data that may
/// not arrive.
///
/// Bursts longer than the buffer (possible when fragmentation is disabled
/// or configured above the depth) fall back to cut-through forwarding and
/// are counted — exactly the sizing constraint the paper states ("from one
/// to 256 beats if the write buffer is parametrized large enough").
///
/// Beats enter in entry order (an entry fills only after every earlier one
/// is complete) and leave from the front entry, so one FIFO holds the beats
/// of every entry in order; an entry keeps only its counters.
#pragma once

#include "axi/burst.hpp"
#include "axi/flit.hpp"

#include "sim/ring.hpp"

#include <cstdint>
#include <deque>
#include <span>

namespace realm::rt {

class WriteBuffer {
public:
    /// \param depth_beats  W-beat storage capacity (16 in the paper's
    ///        Cheshire configuration).
    /// \param enabled      disabled = pure cut-through (ablation mode).
    explicit WriteBuffer(std::uint32_t depth_beats = 16, bool enabled = true);

    /// \name Upstream side
    ///@{
    /// Queues the child bursts of an accepted parent write.
    void queue_children(const axi::AwFlit& parent,
                        std::span<const axi::BurstDescriptor> children);
    /// True when one more W beat can be absorbed this cycle.
    [[nodiscard]] bool can_accept_beat() const noexcept;
    /// Absorbs one parent W beat (beats arrive in parent AW order; the
    /// buffer re-gates `last` at child boundaries).
    void accept_beat(const axi::WFlit& beat);
    ///@}

    /// \name Downstream side
    ///@{
    [[nodiscard]] bool has_aw_to_send() const noexcept;
    axi::AwFlit pop_aw();
    [[nodiscard]] bool has_w_to_send() const noexcept;
    axi::WFlit pop_w();
    ///@}

    /// \name Introspection
    ///@{
    [[nodiscard]] std::uint32_t buffered_beats() const noexcept {
        return static_cast<std::uint32_t>(beats_.size());
    }
    [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    [[nodiscard]] std::uint64_t cut_through_bursts() const noexcept { return cut_through_; }
    [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
    ///@}

private:
    struct Entry {
        axi::AwFlit aw;                 ///< child address flit, ready to emit
        std::uint32_t beats_total = 0;
        std::uint32_t beats_buffered = 0;
        std::uint32_t beats_sent = 0;
        bool aw_sent = false;
        bool cut_through = false;       ///< larger than the buffer: stream through
        bool parent_last = false;       ///< this child carries the parent's last beat
    };

    /// First entry still missing beats (fill pointer).
    [[nodiscard]] Entry* fill_target() noexcept;

    std::uint32_t depth_;
    bool enabled_;
    std::deque<Entry> entries_;
    /// Buffered, unsent beats of every entry, in entry order.
    sim::FlatRing<axi::WFlit> beats_;
    std::uint64_t cut_through_ = 0;
};

} // namespace realm::rt
