/// \file
/// \brief Programmable interference injector: parameterized pattern
///        primitives driven by a compact genome.
///
/// The DoS matrix enumerates three hand-written aggressors (hog / overdraft
/// / wstall). SafeTI's lesson (arXiv:2308.11528) is that interference
/// testing is only as strong as its pattern diversity, so this module makes
/// the aggressor itself *searchable*: an `InjectorGenome` is a fixed-width
/// byte vector whose every value decodes — totally, no illegal points — into
/// a combination of pattern primitives:
///
///   - bursty on/off duty cycles,
///   - strided / pointer-chase / random address walks,
///   - read-storm and write-stall phases (AW reserved, data trickled),
///   - mixed AW:AR ratios,
///   - burst-size ramps.
///
/// `InjectorEngine` executes a genome on a manager port as protocol-legal
/// AXI4 traffic (checker-clean by construction: bursts clamped to the span
/// and the 4 KiB boundary, W beats in AW order, WLAST exact). Traffic is a
/// pure function of (genome, seed): bit-identical streams on replay, which
/// is what lets the adversarial search harness (scenario/search.hpp) treat
/// genomes as scenario points with ordinary `config_hash` resume keys.
#pragma once

#include "axi/channel.hpp"

#include "sim/component.hpp"
#include "sim/rng.hpp"

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace realm::traffic {

/// Fixed-width parameter vector of one interference pattern. Every byte
/// value is legal; decoding is total and deterministic, so random mutation
/// can never produce an invalid attacker.
struct InjectorGenome {
    static constexpr std::size_t kGenes = 12;

    /// Gene roles (index into `genes`).
    enum Gene : std::size_t {
        kReadBeats = 0,   ///< read burst length: 1 + g in [1, 256]
        kWriteBeats = 1,  ///< write burst length: 1 + g in [1, 256]
        kWriteRatio = 2,  ///< AW:AR mix: g*17/256 in [0, 16] (writes per 16)
        kWalk = 3,        ///< g % 3: strided / pointer-chase / random
        kStride = 4,      ///< stride: 1 << (g % 9) bus-widths in [1, 256]
        kDutyOn = 5,      ///< on-phase: 64 << (g % 5) cycles in [64, 1024]
        kDutyOff = 6,     ///< off-phase: (g % 8) * 64 cycles (0 = always on)
        kWStall = 7,      ///< cycles between W beats: g % 65 in [0, 64]
        kHeadDelay = 8,   ///< AW -> first W reserve window: (g % 4) * 32
        kOutstanding = 9, ///< per-direction outstanding bursts: 1 + g % 4
        kRamp = 10,       ///< beats added per issued burst: g % 32 (wraps)
        kSpanShift = 11,  ///< address window: span >> (g % 4)
    };

    std::array<std::uint8_t, kGenes> genes{};

    friend bool operator==(const InjectorGenome& a, const InjectorGenome& b) {
        return a.genes == b.genes;
    }
};

/// Address-walk mode of a decoded genome.
enum class InjectorWalk : std::uint8_t { kStrided, kChase, kRandom };

[[nodiscard]] constexpr const char* to_string(InjectorWalk w) noexcept {
    switch (w) {
    case InjectorWalk::kStrided: return "strided";
    case InjectorWalk::kChase: return "chase";
    case InjectorWalk::kRandom: return "random";
    }
    return "?";
}

/// Fully decoded pattern parameters. Produced by `decode_genome`; every
/// field is in its documented legal range for any input genome.
struct InjectorParams {
    std::uint32_t read_beats = 1;     ///< [1, 256]
    std::uint32_t write_beats = 1;    ///< [1, 256]
    std::uint32_t write_ratio16 = 0;  ///< [0, 16] writes per 16 bursts
    InjectorWalk walk = InjectorWalk::kStrided;
    std::uint32_t stride_beats = 1;   ///< [1, 256] bus-widths between bursts
    std::uint32_t on_cycles = 64;     ///< [64, 1024]
    std::uint32_t off_cycles = 0;     ///< [0, 448]; 0 = always on
    std::uint32_t w_stall_cycles = 0; ///< [0, 64] cycles between W beats
    std::uint32_t head_delay = 0;     ///< [0, 96] cycles AW -> first W beat
    std::uint32_t max_outstanding = 1; ///< [1, 4] per direction
    std::uint32_t ramp_step = 0;      ///< [0, 31] beats added per burst
    std::uint32_t span_shift = 0;     ///< [0, 3]: window = span >> shift
};

/// Decodes a genome. Total: every byte vector maps to legal parameters.
[[nodiscard]] InjectorParams decode_genome(const InjectorGenome& g) noexcept;

/// Encodes a genome as a replayable scenario label: `inj:` followed by
/// `2 * kGenes` lowercase hex digits. `parse_injector_label` inverts it;
/// the round-trip is exact, so a searched winner can be re-run as a fixed
/// scenario from its reported label alone.
[[nodiscard]] std::string to_label(const InjectorGenome& g);
[[nodiscard]] std::optional<InjectorGenome> parse_injector_label(std::string_view label);

struct InjectorConfig {
    std::uint32_t bus_bytes = 8;
    InjectorGenome genome{};
    /// Read bursts walk `[read_base, read_base + span_bytes)`; write bursts
    /// walk `[write_base, write_base + span_bytes)` (shrunk by the genome's
    /// span-shift gene). Both spans must be bus-aligned.
    axi::Addr read_base = 0;
    axi::Addr write_base = 0;
    std::uint64_t span_bytes = 0x1000;
    /// Seeds the random-walk / mix RNG; traffic is a pure function of
    /// (genome, seed, port timing), bit-identical on replay.
    std::uint64_t seed = 1;
};

/// Executes one genome on a manager port, forever (interference engines run
/// until the scenario ends; there is no job queue). Reads are independent
/// requests; write data is synthesized, so a write-stall genome reserves
/// the W channel exactly like the stalling-manager DoS of the paper.
class InjectorEngine : public sim::Component {
public:
    InjectorEngine(sim::SimContext& ctx, std::string name, axi::AxiChannel& port,
                   InjectorConfig config = {});

    void tick() override;

    /// \name Statistics
    ///@{
    [[nodiscard]] std::uint64_t bytes_read() const noexcept { return bytes_read_; }
    [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }
    [[nodiscard]] std::uint64_t reads_issued() const noexcept { return reads_issued_; }
    [[nodiscard]] std::uint64_t writes_issued() const noexcept { return writes_issued_; }
    ///@}

private:
    enum class WSlot : std::uint8_t { kFree, kStreaming, kAwaitB };

    /// One write burst whose W beats are still owed, in AW order.
    struct PendingWrite {
        std::uint32_t id = 0;
        std::uint32_t beats = 0;
        std::uint32_t sent = 0;
        sim::Cycle first_w_at = 0; ///< reserve window: AW time + head_delay
    };

    [[nodiscard]] bool duty_on() const noexcept;
    /// Next burst address in the window, clamping `beats` to the window end
    /// and the AXI 4 KiB boundary, then advancing the walk.
    [[nodiscard]] axi::Addr next_addr(bool write, std::uint32_t& beats);
    void collect_r();
    void collect_b();
    void stream_w();
    void issue();
    void redraw_kind();

    axi::ManagerView port_;
    InjectorConfig cfg_;
    InjectorParams params_;
    sim::Rng rng_;

    sim::Cycle start_cycle_ = sim::kNoCycle; ///< duty-cycle phase anchor
    bool next_is_write_ = false;

    std::vector<std::uint32_t> read_left_; ///< R beats owed per read ID (0 = free)
    std::vector<WSlot> write_slot_;
    std::deque<PendingWrite> w_queue_;
    sim::Cycle next_w_at_ = 0;

    std::uint64_t read_offset_ = 0;  ///< walk state, bytes into the window
    std::uint64_t write_offset_ = 0;
    std::uint32_t cur_read_beats_ = 1;  ///< ramped burst lengths
    std::uint32_t cur_write_beats_ = 1;

    std::uint64_t bytes_read_ = 0;
    std::uint64_t bytes_written_ = 0;
    std::uint64_t reads_issued_ = 0;
    std::uint64_t writes_issued_ = 0;
};

} // namespace realm::traffic
