/// \file
/// \brief The AXI-REALM unit (Figure 2 of the paper): isolation block,
///        granular burst splitter, write buffer and M&R unit, orchestrated
///        by a small FSM, placed between one manager and the interconnect.
///
/// Timing: the unit adds exactly **one cycle** to the request path and none
/// to the response path, matching the paper ("AXI-REALM delays in-flight
/// transactions by just one clock cycle"). For this to hold the downstream
/// channel must pass responses through (`make_downstream_channel` builds
/// it) and the unit must be registered *after* the component driving the
/// downstream response channels: the crossbar in `soc::CheshireSoc`, the
/// node's router in `noc::NocFabric`.
#pragma once

#include "axi/channel.hpp"
#include "realm/isolation.hpp"
#include "realm/mr_unit.hpp"
#include "realm/splitter.hpp"
#include "realm/write_buffer.hpp"

#include "sim/component.hpp"

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

namespace realm::rt {

/// Design-time parameters (the paper's Table II sweep axes).
struct RealmUnitConfig {
    bool enabled = true;             ///< start in regulation mode (else bypass)
    std::uint32_t fragment_beats = axi::kMaxBurstBeats;
    std::uint32_t max_pending = 8;   ///< outstanding transactions per direction
    std::uint32_t write_buffer_depth = 16;
    bool write_buffer_enabled = true;
    bool throttle_enabled = false;
    std::uint32_t num_regions = 2;
};

/// FSM state exposed through the status register.
enum class RealmState : std::uint8_t {
    kBypass,         ///< unit disabled, traffic passes unmodified
    kReady,          ///< regulating, manager admitted
    kIsolatedBudget, ///< a region depleted its budget; waiting for the period
    kDraining,       ///< isolation/reconfiguration commanded, outstanding draining
    kIsolatedUser,   ///< user-commanded isolation in full effect
};

[[nodiscard]] constexpr const char* to_string(RealmState s) noexcept {
    switch (s) {
    case RealmState::kBypass: return "BYPASS";
    case RealmState::kReady: return "READY";
    case RealmState::kIsolatedBudget: return "ISOLATED_BUDGET";
    case RealmState::kDraining: return "DRAINING";
    case RealmState::kIsolatedUser: return "ISOLATED_USER";
    }
    return "?";
}

class RealmUnit : public sim::Component {
public:
    RealmUnit(sim::SimContext& ctx, std::string name, axi::AxiChannel& upstream,
              axi::AxiChannel& downstream, RealmUnitConfig config = {});

    void tick() override;

    /// \name Runtime configuration (driven by the protected register file)
    ///@{
    /// Requests a new fragmentation granularity. Intrusive: applied
    /// immediately when idle, otherwise the unit drains first. Returns true
    /// if applied immediately.
    bool set_fragmentation(std::uint32_t beats);
    /// Enables/disables the whole unit (intrusive, drains first).
    bool set_enabled(bool enabled);
    void set_region(std::uint32_t index, const RegionConfig& region);
    void set_throttle(bool enabled) {
        mr_.set_throttle_enabled(enabled);
        wake();
    }
    /// Commands (or releases) manager isolation.
    void set_user_isolation(bool isolate);
    ///@}

    /// \name Status
    ///@{
    [[nodiscard]] RealmState state() const noexcept;
    [[nodiscard]] bool fully_isolated() const noexcept { return iso_.fully_isolated(); }
    [[nodiscard]] std::uint32_t fragmentation() const noexcept {
        return splitter_.granularity();
    }
    [[nodiscard]] bool enabled() const noexcept { return cfg_.enabled; }
    [[nodiscard]] const RealmUnitConfig& config() const noexcept { return cfg_; }
    ///@}

    /// \name Sub-block access (observability / tests)
    ///@{
    [[nodiscard]] const MonitorRegulationUnit& mr() const noexcept { return mr_; }
    [[nodiscard]] MonitorRegulationUnit& mr() noexcept { return mr_; }
    [[nodiscard]] const GranularBurstSplitter& splitter() const noexcept { return splitter_; }
    [[nodiscard]] const WriteBuffer& write_buffer() const noexcept { return wbuf_; }
    [[nodiscard]] const IsolationBlock& isolation() const noexcept { return iso_; }
    ///@}

    /// \name Stall accounting (interference observability)
    ///@{
    [[nodiscard]] std::uint64_t isolation_stalls() const noexcept { return isolation_stalls_; }
    [[nodiscard]] std::uint64_t throttle_stalls() const noexcept { return throttle_stalls_; }
    [[nodiscard]] std::uint64_t reads_accepted() const noexcept { return reads_accepted_; }
    [[nodiscard]] std::uint64_t writes_accepted() const noexcept { return writes_accepted_; }
    ///@}

private:
    struct TxnMeta {
        sim::Cycle accepted_at = 0;
        std::optional<std::uint32_t> region;
    };

    void bypass_tick();
    void process_responses();
    void apply_pending_config();
    void update_budget_isolation();
    void emit_requests();
    void accept_requests();
    void update_activity();

    axi::SubordinateView up_;
    axi::ManagerView down_;
    RealmUnitConfig cfg_;

    GranularBurstSplitter splitter_;
    WriteBuffer wbuf_;
    IsolationBlock iso_;
    MonitorRegulationUnit mr_;

    std::optional<std::uint32_t> pending_fragmentation_;
    std::optional<bool> pending_enabled_;

    std::unordered_map<axi::IdT, std::deque<TxnMeta>> read_meta_;
    std::unordered_map<axi::IdT, std::deque<TxnMeta>> write_meta_;

    std::uint64_t isolation_stalls_ = 0;
    std::uint64_t throttle_stalls_ = 0;
    std::uint64_t reads_accepted_ = 0;
    std::uint64_t writes_accepted_ = 0;
};

/// The channel between a REALM unit and the interconnect port it feeds:
/// registered requests and pass-through B/R, so the unit costs one cycle on
/// the request path and none on the response path. Every fabric builds the
/// channel behind a unit here, and a channel without a unit stays
/// registered.
[[nodiscard]] std::unique_ptr<axi::AxiChannel>
make_downstream_channel(const sim::SimContext& ctx, std::string name);

} // namespace realm::rt
