/// \file
/// \brief Cheshire-like SoC assembly (Figure 5 of the paper).
///
/// Managers: a HWRoT-style config master, one core port (attach a
/// `traffic::CoreModel`), and N DSA DMA ports (attach `traffic::DmaEngine`s)
/// — the core and DSA ports each sit behind a REALM unit when
/// `realm_present`. Subordinates: the LLC (fronting DRAM), a scratchpad
/// SPM, the guarded REALM configuration space, and a DECERR default
/// subordinate, all on one burst-granular round-robin AXI4 crossbar.
#pragma once

#include "axi/channel.hpp"
#include "cfg/axi_to_reg.hpp"
#include "cfg/bus_guard.hpp"
#include "cfg/realm_regfile.hpp"
#include "ic/xbar.hpp"
#include "mem/axi_mem_slave.hpp"
#include "mem/backend.hpp"
#include "mem/error_slave.hpp"
#include "mem/llc.hpp"
#include "realm/realm_unit.hpp"
#include "soc/config_master.hpp"

#include "sim/context.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace realm::soc {

struct SocConfig {
    std::uint32_t bus_bytes = 8;
    std::uint32_t num_dsa = 1;        ///< DSA DMA manager ports
    bool realm_present = true;        ///< wire REALM units on core + DSA ports

    /// \name Memory map
    ///@{
    axi::Addr cfg_base = 0x0200'0000;
    std::uint64_t cfg_size = 0x1'0000;
    axi::Addr spm_base = 0x7000'0000;
    std::uint64_t spm_size = 0x8'0000;     ///< 512 KiB scratchpad
    axi::Addr dram_base = 0x8000'0000;
    std::uint64_t dram_size = 0x1000'0000; ///< 256 MiB behind the LLC
    ///@}

    mem::LlcConfig llc;
    mem::DramTiming dram;
    rt::RealmUnitConfig realm; ///< template applied to every REALM unit
};

class CheshireSoc {
public:
    CheshireSoc(sim::SimContext& ctx, SocConfig config = {});

    CheshireSoc(const CheshireSoc&) = delete;
    CheshireSoc& operator=(const CheshireSoc&) = delete;

    /// \name Manager-side attachment points
    ///@{
    /// Channel the core model drives (upstream of its REALM unit).
    [[nodiscard]] axi::AxiChannel& core_port() noexcept { return *core_port_; }
    /// Channel DSA DMA engine `i` drives.
    [[nodiscard]] axi::AxiChannel& dsa_port(std::size_t i) { return *dsa_ports_.at(i); }
    [[nodiscard]] ConfigMaster& boot_master() noexcept { return *boot_master_; }
    ///@}

    /// \name REALM units (only when `realm_present`)
    ///@{
    [[nodiscard]] bool realm_present() const noexcept { return cfg_.realm_present; }
    [[nodiscard]] rt::RealmUnit& core_realm() { return *realm_units_.at(0); }
    [[nodiscard]] rt::RealmUnit& dsa_realm(std::size_t i) { return *realm_units_.at(1 + i); }
    ///@}

    /// \name Subordinates & infrastructure
    ///@{
    [[nodiscard]] mem::Llc& llc() noexcept { return *llc_; }
    [[nodiscard]] mem::SparseMemory& dram_image() noexcept {
        return static_cast<mem::DramBackend&>(dram_slave_->backend()).store();
    }
    [[nodiscard]] mem::SparseMemory& spm_image() noexcept {
        return static_cast<mem::SramBackend&>(spm_slave_->backend()).store();
    }
    [[nodiscard]] cfg::BusGuard& guard() noexcept { return *guard_; }
    [[nodiscard]] cfg::RealmRegFile& regfile() noexcept { return *regfile_; }
    [[nodiscard]] ic::AxiXbar& xbar() noexcept { return *xbar_; }
    [[nodiscard]] mem::ErrorSlave& error_slave() noexcept { return *err_slave_; }
    [[nodiscard]] const SocConfig& config() const noexcept { return cfg_; }
    ///@}

    /// Pre-loads the LLC with DRAM contents over [base, base+bytes): the
    /// paper's hot-LLC precondition.
    void warm_llc(axi::Addr base, std::uint64_t bytes);

    /// Queues the boot-flow configuration script on the boot master: claim
    /// the guard, then program fragmentation + one region (covering the LLC
    /// address span) with `budget`/`period` on every unit.
    struct BootRegionPlan {
        std::uint64_t budget_bytes = 0;
        std::uint64_t period_cycles = 0;
        std::uint32_t fragment_beats = axi::kMaxBurstBeats;
    };
    void queue_boot_script(const std::vector<BootRegionPlan>& per_unit_plans);

private:
    sim::SimContext* ctx_;
    SocConfig cfg_;

    // Channels (construction order fixes component evaluation order; see
    // RealmUnit's one-cycle-latency contract).
    std::unique_ptr<axi::AxiChannel> core_port_;
    std::vector<std::unique_ptr<axi::AxiChannel>> dsa_ports_;
    std::unique_ptr<axi::AxiChannel> hwrot_port_;
    std::vector<std::unique_ptr<axi::AxiChannel>> realm_down_; ///< realm -> xbar
    std::unique_ptr<axi::AxiChannel> llc_up_;   ///< xbar -> LLC
    std::unique_ptr<axi::AxiChannel> llc_down_; ///< LLC -> DRAM slave
    std::unique_ptr<axi::AxiChannel> spm_ch_;
    std::unique_ptr<axi::AxiChannel> cfg_ch_;
    std::unique_ptr<axi::AxiChannel> err_ch_;

    // Components.
    std::unique_ptr<ConfigMaster> boot_master_;
    std::unique_ptr<mem::Llc> llc_;
    std::unique_ptr<mem::AxiMemSlave> dram_slave_;
    std::unique_ptr<mem::AxiMemSlave> spm_slave_;
    std::unique_ptr<cfg::RealmRegFile> regfile_;
    std::unique_ptr<cfg::BusGuard> guard_;
    std::unique_ptr<cfg::AxiToReg> cfg_adapter_;
    std::unique_ptr<mem::ErrorSlave> err_slave_;
    std::unique_ptr<ic::AxiXbar> xbar_;
    std::vector<std::unique_ptr<rt::RealmUnit>> realm_units_;
};

} // namespace realm::soc
