/// \file
/// \brief Hardware-root-of-trust style configuration manager.
///
/// A small AXI manager that executes a scripted sequence of single-beat
/// register reads/writes — the paper's boot flow: the trusted manager
/// claims the bus-guarded configuration space and initializes the REALM
/// units before runtime operation.
#pragma once

#include "axi/channel.hpp"

#include "sim/component.hpp"

#include <cstdint>
#include <deque>
#include <vector>

namespace realm::soc {

/// One scripted access.
struct ConfigOp {
    axi::Addr addr = 0;
    bool write = false;
    std::uint32_t wdata = 0;
    bool expect_error = false; ///< for negative tests (unclaimed/foreign TID)
};

/// Result of a completed access.
struct ConfigResult {
    ConfigOp op;
    std::uint32_t rdata = 0;
    bool error = false;
};

class ConfigMaster : public sim::Component {
public:
    ConfigMaster(sim::SimContext& ctx, std::string name, axi::AxiChannel& port,
                 axi::IdT tid = 0xC0);

    void tick() override;

    /// Appends an access to the script.
    void push(const ConfigOp& op) {
        script_.push_back(op);
        wake(); // the master idles once its script has drained
    }
    void push_write(axi::Addr addr, std::uint32_t wdata, bool expect_error = false) {
        push(ConfigOp{addr, true, wdata, expect_error});
    }

    [[nodiscard]] bool done() const noexcept { return script_.empty() && !in_flight_; }
    [[nodiscard]] const std::vector<ConfigResult>& results() const noexcept { return results_; }
    /// Accesses whose error status did not match `expect_error`.
    [[nodiscard]] std::uint64_t unexpected_responses() const noexcept { return unexpected_; }
    [[nodiscard]] axi::IdT tid() const noexcept { return tid_; }

private:
    enum class Phase : std::uint8_t { kIdle, kAwaitW, kAwaitB, kAwaitR };

    axi::ManagerView port_;
    axi::IdT tid_;
    std::deque<ConfigOp> script_;
    std::vector<ConfigResult> results_;
    bool in_flight_ = false;
    Phase phase_ = Phase::kIdle;
    ConfigOp current_{};
    std::uint64_t unexpected_ = 0;
};

} // namespace realm::soc
