/// \file
/// \brief Granular burst splitter (Figure 3a of the paper).
///
/// Fragments incoming bursts to a runtime-configurable granularity so that
/// burst-granular round-robin arbiters downstream cannot let one manager's
/// long bursts starve another's fine-granular traffic. Pure bookkeeping
/// class — the owning `RealmUnit` moves the flits; this class decides how
/// bursts fragment, gates child R.last flags, and coalesces child write
/// responses back into one parent response.
///
/// AXI4 rules honored (see `axi::is_fragmentable`): FIXED and WRAP bursts,
/// exclusive accesses, and non-modifiable bursts of <= 16 beats pass intact.
#pragma once

#include "axi/burst.hpp"
#include "axi/flit.hpp"

#include "sim/types.hpp"

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

namespace realm::rt {

class GranularBurstSplitter {
public:
    /// \param granularity_beats  child burst length cap, in [1, 256];
    ///        256 effectively disables fragmentation.
    /// \param max_parents        outstanding parent bursts per direction.
    explicit GranularBurstSplitter(std::uint32_t granularity_beats = axi::kMaxBurstBeats,
                                   std::uint32_t max_parents = 8);

    /// \name Configuration
    ///@{
    void set_granularity(std::uint32_t beats);
    [[nodiscard]] std::uint32_t granularity() const noexcept { return granularity_; }
    ///@}

    /// \name Read path
    ///@{
    [[nodiscard]] bool can_accept_read() const noexcept;
    /// Accepts a parent AR; its children become available via `pop_child_ar`.
    void accept_read(const axi::ArFlit& parent);
    [[nodiscard]] bool has_child_ar() const noexcept { return !child_ar_queue_.empty(); }
    axi::ArFlit pop_child_ar();

    struct ProcessedR {
        axi::RFlit flit;        ///< beat to forward upstream (last re-gated)
        bool parent_completed;  ///< true on the parent's final beat
    };
    /// Consumes one child R beat (in per-ID order) and re-gates `last`.
    ProcessedR process_r(const axi::RFlit& beat);
    ///@}

    /// \name Write path (data transport lives in `WriteBuffer`)
    ///@{
    [[nodiscard]] bool can_accept_write() const noexcept;
    /// Accepts a parent AW, returning the child burst descriptors in order.
    std::vector<axi::BurstDescriptor> accept_write(const axi::AwFlit& parent);
    /// Consumes one child B; returns the coalesced parent B (worst child
    /// response wins) once all children responded, nullopt otherwise.
    std::optional<axi::BFlit> process_b(const axi::BFlit& child);
    ///@}

    /// \name Introspection
    ///@{
    [[nodiscard]] std::uint32_t reads_in_flight() const noexcept { return reads_in_flight_; }
    [[nodiscard]] std::uint32_t writes_in_flight() const noexcept { return writes_in_flight_; }
    [[nodiscard]] std::uint64_t fragments_created() const noexcept { return fragments_created_; }
    [[nodiscard]] std::uint64_t bursts_passed_intact() const noexcept { return passed_intact_; }
    ///@}

private:
    struct ParentRead {
        axi::ArFlit parent;
        std::vector<axi::BurstDescriptor> children;
        std::uint32_t child_index = 0;
        std::uint32_t beat_in_child = 0;
    };
    struct ParentWrite {
        axi::AwFlit parent;
        std::uint32_t children_total = 0;
        std::uint32_t children_done = 0;
        axi::Resp merged = axi::Resp::kExOkay;
    };

    [[nodiscard]] std::vector<axi::BurstDescriptor>
    fragment(const axi::BurstDescriptor& desc, std::uint8_t cache, bool lock);

    std::uint32_t granularity_;
    std::uint32_t max_parents_;

    std::unordered_map<axi::IdT, std::deque<ParentRead>> reads_;
    std::unordered_map<axi::IdT, std::deque<ParentWrite>> writes_;
    std::deque<axi::ArFlit> child_ar_queue_;

    std::uint32_t reads_in_flight_ = 0;
    std::uint32_t writes_in_flight_ = 0;
    std::uint64_t fragments_created_ = 0;
    std::uint64_t passed_intact_ = 0;
};

} // namespace realm::rt
