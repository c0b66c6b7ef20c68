#include "soc/cheshire_soc.hpp"

#include "ic/addr_map.hpp"
#include "sim/check.hpp"

#include <utility>

namespace realm::soc {

namespace {
constexpr std::uint32_t kLlcPort = 0;
constexpr std::uint32_t kSpmPort = 1;
constexpr std::uint32_t kCfgPort = 2;
constexpr std::uint32_t kErrPort = 3;
} // namespace

CheshireSoc::CheshireSoc(sim::SimContext& ctx, SocConfig config)
    : ctx_{&ctx}, cfg_{config} {
    REALM_EXPECTS(cfg_.num_dsa >= 1, "SoC needs at least one DSA port");

    // --- Channels -----------------------------------------------------------
    core_port_ = std::make_unique<axi::AxiChannel>(ctx, "core");
    for (std::uint32_t i = 0; i < cfg_.num_dsa; ++i) {
        dsa_ports_.push_back(
            std::make_unique<axi::AxiChannel>(ctx, "dsa" + std::to_string(i)));
    }
    hwrot_port_ = std::make_unique<axi::AxiChannel>(ctx, "hwrot");
    if (cfg_.realm_present) {
        // Each REALM unit adds exactly one cycle (request path only); the
        // units tick after the crossbar, which pushes their responses.
        for (std::uint32_t i = 0; i < 1 + cfg_.num_dsa; ++i) {
            realm_down_.push_back(
                rt::make_downstream_channel(ctx, "realm_down" + std::to_string(i)));
        }
    }
    llc_up_ = std::make_unique<axi::AxiChannel>(ctx, "llc_up");
    llc_down_ = std::make_unique<axi::AxiChannel>(ctx, "llc_down");
    spm_ch_ = std::make_unique<axi::AxiChannel>(ctx, "spm");
    cfg_ch_ = std::make_unique<axi::AxiChannel>(ctx, "cfg");
    err_ch_ = std::make_unique<axi::AxiChannel>(ctx, "err");

    // --- Components (construction order == evaluation order) ----------------
    boot_master_ = std::make_unique<ConfigMaster>(ctx, "hwrot", *hwrot_port_);

    llc_ = std::make_unique<mem::Llc>(ctx, "llc", *llc_up_, *llc_down_, cfg_.llc);
    dram_slave_ = std::make_unique<mem::AxiMemSlave>(
        ctx, "dram", *llc_down_, std::make_unique<mem::DramBackend>(cfg_.dram),
        mem::AxiMemSlaveConfig{8, 8, /*base=*/0});
    // Sparse backing stores are addressed with absolute bus addresses, so no
    // rebasing is needed (and test/bench code can index images directly).
    spm_slave_ = std::make_unique<mem::AxiMemSlave>(
        ctx, "spm", *spm_ch_, std::make_unique<mem::SramBackend>(1, 1),
        mem::AxiMemSlaveConfig{8, 8, /*base=*/0});
    err_slave_ = std::make_unique<mem::ErrorSlave>(ctx, "err", *err_ch_);

    ic::AddrMap map;
    map.add(cfg_.dram_base, cfg_.dram_size, kLlcPort, "dram/llc");
    map.add(cfg_.spm_base, cfg_.spm_size, kSpmPort, "spm");
    map.add(cfg_.cfg_base, cfg_.cfg_size, kCfgPort, "realm-cfg");

    std::vector<axi::AxiChannel*> mgrs;
    mgrs.push_back(hwrot_port_.get());
    if (cfg_.realm_present) {
        for (auto& ch : realm_down_) { mgrs.push_back(ch.get()); }
    } else {
        mgrs.push_back(core_port_.get());
        for (auto& ch : dsa_ports_) { mgrs.push_back(ch.get()); }
    }
    ic::XbarConfig xcfg;
    xcfg.default_port = kErrPort;
    xbar_ = std::make_unique<ic::AxiXbar>(
        ctx, "xbar", std::move(mgrs),
        std::vector<axi::AxiChannel*>{llc_up_.get(), spm_ch_.get(), cfg_ch_.get(),
                                      err_ch_.get()},
        map, xcfg);

    if (cfg_.realm_present) {
        realm_units_.push_back(std::make_unique<rt::RealmUnit>(
            ctx, "realm.core", *core_port_, *realm_down_[0], cfg_.realm));
        for (std::uint32_t i = 0; i < cfg_.num_dsa; ++i) {
            realm_units_.push_back(std::make_unique<rt::RealmUnit>(
                ctx, "realm.dsa" + std::to_string(i), *dsa_ports_[i], *realm_down_[1 + i],
                cfg_.realm));
        }
        std::vector<rt::RealmUnit*> unit_ptrs;
        for (auto& u : realm_units_) { unit_ptrs.push_back(u.get()); }
        regfile_ = std::make_unique<cfg::RealmRegFile>(std::move(unit_ptrs));
        guard_ = std::make_unique<cfg::BusGuard>(*regfile_);
        cfg_adapter_ = std::make_unique<cfg::AxiToReg>(ctx, "cfg", *cfg_ch_, *guard_,
                                                       cfg_.cfg_base);
    } else {
        // Config space still decodes (to keep the map identical) but has
        // nothing behind it; terminate it as an error region.
        struct NullTarget final : cfg::RegTarget {
            cfg::RegRsp reg_access(const cfg::RegReq&) override {
                return cfg::RegRsp::err();
            }
        };
        static NullTarget null_target;
        cfg_adapter_ = std::make_unique<cfg::AxiToReg>(ctx, "cfg", *cfg_ch_, null_target,
                                                       cfg_.cfg_base);
    }
}

void CheshireSoc::warm_llc(axi::Addr base, std::uint64_t bytes) {
    llc_->warm_range(base, bytes, dram_image());
}

void CheshireSoc::queue_boot_script(const std::vector<BootRegionPlan>& per_unit_plans) {
    REALM_EXPECTS(cfg_.realm_present, "no REALM units to configure");
    REALM_EXPECTS(per_unit_plans.size() == realm_units_.size(),
                  "one boot plan per REALM unit required");
    ConfigMaster& bm = *boot_master_;
    using RF = cfg::RealmRegFile;
    const axi::Addr base = cfg_.cfg_base;

    // 1. Claim the guarded configuration space (HWRoT boot sequence).
    bm.push_write(base + cfg::BusGuard::kGuardOffset, 0);

    for (std::uint32_t u = 0; u < per_unit_plans.size(); ++u) {
        const BootRegionPlan& plan = per_unit_plans[u];
        // 2. Fragmentation granularity.
        bm.push_write(base + RF::unit_reg(u, RF::kFragment), plan.fragment_beats);
        // 3. Region 0 covers the LLC-backed DRAM span.
        const axi::Addr r0 = base;
        bm.push_write(r0 + RF::region_reg(u, 0, RF::kStartLo),
                      static_cast<std::uint32_t>(cfg_.dram_base));
        bm.push_write(r0 + RF::region_reg(u, 0, RF::kStartHi),
                      static_cast<std::uint32_t>(cfg_.dram_base >> 32));
        const axi::Addr dram_end = cfg_.dram_base + cfg_.dram_size;
        bm.push_write(r0 + RF::region_reg(u, 0, RF::kEndLo),
                      static_cast<std::uint32_t>(dram_end));
        bm.push_write(r0 + RF::region_reg(u, 0, RF::kEndHi),
                      static_cast<std::uint32_t>(dram_end >> 32));
        bm.push_write(r0 + RF::region_reg(u, 0, RF::kBudgetLo),
                      static_cast<std::uint32_t>(plan.budget_bytes));
        bm.push_write(r0 + RF::region_reg(u, 0, RF::kBudgetHi),
                      static_cast<std::uint32_t>(plan.budget_bytes >> 32));
        bm.push_write(r0 + RF::region_reg(u, 0, RF::kPeriodLo),
                      static_cast<std::uint32_t>(plan.period_cycles));
        bm.push_write(r0 + RF::region_reg(u, 0, RF::kPeriodHi),
                      static_cast<std::uint32_t>(plan.period_cycles >> 32));
    }
}

} // namespace realm::soc
