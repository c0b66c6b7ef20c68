/// Unit tests for the configuration layer: bus guard, register file, and the
/// AXI-to-register adapter.
#include "axi/builder.hpp"
#include "cfg/axi_to_reg.hpp"
#include "cfg/bus_guard.hpp"
#include "cfg/realm_regfile.hpp"
#include "mem/axi_mem_slave.hpp"
#include "realm/realm_unit.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

namespace realm::cfg {
namespace {

using RF = RealmRegFile;

class EchoTarget final : public RegTarget {
public:
    RegRsp reg_access(const RegReq& req) override {
        if (req.write) {
            last_write = req;
            return RegRsp::ok();
        }
        return RegRsp::ok(static_cast<std::uint32_t>(req.addr));
    }
    RegReq last_write{};
};

TEST(BusGuard, UnclaimedRejectsEverythingButGuard) {
    EchoTarget inner;
    BusGuard guard{inner};
    EXPECT_TRUE(guard.reg_access(RegReq{0x10, false, 0, 1}).error);
    EXPECT_TRUE(guard.reg_access(RegReq{0x10, true, 5, 1}).error);
    const RegRsp read_guard = guard.reg_access(RegReq{BusGuard::kGuardOffset, false, 0, 1});
    EXPECT_FALSE(read_guard.error);
    EXPECT_EQ(read_guard.rdata, BusGuard::kUnclaimed);
    EXPECT_EQ(guard.rejected_accesses(), 2U);
}

TEST(BusGuard, ClaimKeysOnTid) {
    EchoTarget inner;
    BusGuard guard{inner};
    EXPECT_FALSE(guard.reg_access(RegReq{BusGuard::kGuardOffset, true, 0, 42}).error);
    EXPECT_TRUE(guard.claimed());
    EXPECT_EQ(guard.owner(), 42U);
    // Owner may access; anyone else may not.
    EXPECT_FALSE(guard.reg_access(RegReq{0x20, true, 7, 42}).error);
    EXPECT_EQ(inner.last_write.addr, 0x20U);
    EXPECT_TRUE(guard.reg_access(RegReq{0x20, true, 7, 43}).error);
}

TEST(BusGuard, HandoverTransfersExclusiveOwnership) {
    EchoTarget inner;
    BusGuard guard{inner};
    (void)guard.reg_access(RegReq{BusGuard::kGuardOffset, true, 0, 1});
    // Handover to TID 9.
    EXPECT_FALSE(guard.reg_access(RegReq{BusGuard::kGuardOffset, true, 9, 1}).error);
    EXPECT_EQ(guard.owner(), 9U);
    EXPECT_TRUE(guard.reg_access(RegReq{0x20, false, 0, 1}).error) << "old owner locked out";
    EXPECT_FALSE(guard.reg_access(RegReq{0x20, false, 0, 9}).error);
    EXPECT_EQ(guard.handovers(), 1U);
}

TEST(BusGuard, ForeignClaimAttemptRejected) {
    EchoTarget inner;
    BusGuard guard{inner};
    (void)guard.reg_access(RegReq{BusGuard::kGuardOffset, true, 0, 1});
    EXPECT_TRUE(guard.reg_access(RegReq{BusGuard::kGuardOffset, true, 5, 2}).error)
        << "non-owner cannot steal the claim";
    EXPECT_EQ(guard.owner(), 1U);
}

/// Fixture with two REALM units in front of memories, driven through the
/// register file by direct RegReq calls.
class RegFileFixture : public ::testing::Test {
protected:
    RegFileFixture() {
        for (int i = 0; i < 2; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            // Slaves sit directly on the downstream channels; they tick
            // before the units, satisfying the response-passthrough order.
            slaves[idx] = std::make_unique<mem::AxiMemSlave>(
                ctx, "mem" + std::to_string(i), *downs[idx],
                std::make_unique<mem::SramBackend>(1, 1), mem::AxiMemSlaveConfig{8, 8, 0});
            std::string unit = "u"; // appended: `"u" + to_string` trips GCC 12's -Wrestrict
            unit += std::to_string(i);
            units[idx] = std::make_unique<rt::RealmUnit>(ctx, unit, *ups[idx], *downs[idx]);
        }
        regfile = std::make_unique<RealmRegFile>(
            std::vector<rt::RealmUnit*>{units[0].get(), units[1].get()});
    }

    sim::SimContext ctx;
    std::array<std::unique_ptr<axi::AxiChannel>, 2> ups{
        std::make_unique<axi::AxiChannel>(ctx, "up0"),
        std::make_unique<axi::AxiChannel>(ctx, "up1")};
    std::array<std::unique_ptr<axi::AxiChannel>, 2> downs{
        std::make_unique<axi::AxiChannel>(ctx, "down0", 2, true),
        std::make_unique<axi::AxiChannel>(ctx, "down1", 2, true)};
    std::array<std::unique_ptr<mem::AxiMemSlave>, 2> slaves;
    std::array<std::unique_ptr<rt::RealmUnit>, 2> units;
    std::unique_ptr<RealmRegFile> regfile;

    RegRsp write(axi::Addr addr, std::uint32_t v) {
        return regfile->reg_access(RegReq{addr, true, v, 0});
    }
    RegRsp read(axi::Addr addr) { return regfile->reg_access(RegReq{addr, false, 0, 0}); }
};

TEST_F(RegFileFixture, IdentificationRegisters) {
    EXPECT_EQ(read(RF::kNumUnitsOffset).rdata, 2U);
    EXPECT_EQ(read(RF::kNumRegionsOffset).rdata, 2U);
    EXPECT_TRUE(write(RF::kNumUnitsOffset, 1).error) << "RO register";
}

TEST_F(RegFileFixture, FragmentationReadWrite) {
    EXPECT_EQ(read(RF::unit_reg(0, RF::kFragment)).rdata, 256U);
    EXPECT_FALSE(write(RF::unit_reg(0, RF::kFragment), 8).error);
    EXPECT_EQ(read(RF::unit_reg(0, RF::kFragment)).rdata, 8U);
    EXPECT_EQ(units[0]->fragmentation(), 8U);
    EXPECT_EQ(units[1]->fragmentation(), 256U) << "units are independent";
    EXPECT_TRUE(write(RF::unit_reg(0, RF::kFragment), 0).error);
    EXPECT_TRUE(write(RF::unit_reg(0, RF::kFragment), 300).error);
}

TEST_F(RegFileFixture, CtrlBitsDriveUnit) {
    EXPECT_FALSE(write(RF::unit_reg(1, RF::kCtrl),
                       RF::kCtrlEnable | RF::kCtrlIsolate | RF::kCtrlThrottle)
                     .error);
    EXPECT_TRUE(units[1]->isolation().cause_active(rt::IsolationCause::kUser));
    EXPECT_TRUE(units[1]->mr().throttle_enabled());
    const std::uint32_t v = read(RF::unit_reg(1, RF::kCtrl)).rdata;
    EXPECT_EQ(v, RF::kCtrlEnable | RF::kCtrlIsolate | RF::kCtrlThrottle);
}

TEST_F(RegFileFixture, RegionProgrammingReachesUnit) {
    const axi::Addr base = RF::region_reg(0, 1, RF::kStartLo);
    EXPECT_FALSE(write(base, 0x8000'0000U).error);
    EXPECT_FALSE(write(RF::region_reg(0, 1, RF::kStartHi), 0x1).error);
    EXPECT_FALSE(write(RF::region_reg(0, 1, RF::kEndLo), 0x9000'0000U).error);
    EXPECT_FALSE(write(RF::region_reg(0, 1, RF::kEndHi), 0x1).error);
    EXPECT_FALSE(write(RF::region_reg(0, 1, RF::kBudgetLo), 4096).error);
    EXPECT_FALSE(write(RF::region_reg(0, 1, RF::kPeriodLo), 1000).error);
    const rt::RegionState& r = units[0]->mr().region(1);
    EXPECT_EQ(r.config.start, 0x1'8000'0000ULL);
    EXPECT_EQ(r.config.end, 0x1'9000'0000ULL);
    EXPECT_EQ(r.config.budget_bytes, 4096U);
    EXPECT_EQ(r.config.period_cycles, 1000U);
    // Read-back through the register file.
    EXPECT_EQ(read(RF::region_reg(0, 1, RF::kStartHi)).rdata, 0x1U);
    EXPECT_EQ(read(RF::region_reg(0, 1, RF::kBudgetLo)).rdata, 4096U);
    EXPECT_EQ(read(RF::region_reg(0, 1, RF::kCredit)).rdata, 4096U);
}

TEST_F(RegFileFixture, StatusReflectsState) {
    std::uint32_t v = read(RF::unit_reg(0, RF::kStatus)).rdata;
    EXPECT_EQ(v & 0xF, static_cast<std::uint32_t>(rt::RealmState::kReady));
    (void)write(RF::unit_reg(0, RF::kCtrl), RF::kCtrlEnable | RF::kCtrlIsolate);
    v = read(RF::unit_reg(0, RF::kStatus)).rdata;
    EXPECT_EQ(v & 0xF, static_cast<std::uint32_t>(rt::RealmState::kIsolatedUser));
    EXPECT_TRUE((v >> 4) & 1) << "fully-isolated bit";
}

TEST_F(RegFileFixture, OutOfRangeAccessesError) {
    EXPECT_TRUE(read(RF::unit_reg(2, RF::kCtrl)).error) << "only two units";
    EXPECT_TRUE(read(RF::region_reg(0, 2, RF::kStartLo)).error) << "only two regions";
    EXPECT_TRUE(read(0x0C).error) << "hole in the per-system block";
    EXPECT_TRUE(read(RF::unit_reg(0, RF::kCtrl) + 2).error) << "unaligned";
    EXPECT_TRUE(write(RF::unit_reg(0, RF::kStatus), 1).error) << "RO register";
}

TEST_F(RegFileFixture, StatisticsReadable) {
    // Drive one read through unit 0, then check counters via registers.
    axi::ManagerView mgr{*ups[0]};
    units[0]->set_region(0, [] {
        rt::RegionConfig r;
        r.start = 0;
        r.end = 0x10000;
        return r;
    }());
    mgr.send_ar(axi::make_ar(1, 0x100, 4, 3));
    (void)test::collect_read_burst(ctx, *ups[0], 4);
    EXPECT_EQ(read(RF::unit_reg(0, RF::kReadsAcc)).rdata, 1U);
    EXPECT_EQ(read(RF::region_reg(0, 0, RF::kTxnCount)).rdata, 1U);
    EXPECT_EQ(read(RF::region_reg(0, 0, RF::kBytesPeriod)).rdata, 32U);
    EXPECT_GT(read(RF::region_reg(0, 0, RF::kRdLatMax)).rdata, 3U);
}

// --- AxiToReg -----------------------------------------------------------------

class AxiToRegFixture : public ::testing::Test {
protected:
    AxiToRegFixture() : guard{echo} {
        adapter = std::make_unique<AxiToReg>(ctx, "a2r", ch, guard, /*base=*/0x1000);
    }
    sim::SimContext ctx;
    axi::AxiChannel ch{ctx, "cfg"};
    EchoTarget echo;
    BusGuard guard;
    std::unique_ptr<AxiToReg> adapter;
};

TEST_F(AxiToRegFixture, SingleBeatWriteAndReadWithGuard) {
    axi::ManagerView mgr{ch};
    // Claim (TID = 7) through AXI.
    mgr.send_aw(axi::make_aw(7, 0x1000, 1, 3));
    ctx.step();
    axi::WFlit w;
    w.last = true;
    std::uint32_t claim = 0;
    std::memcpy(w.data.bytes.data(), &claim, 4);
    mgr.send_w(w);
    const axi::BFlit b = test::collect_b(ctx, ch);
    EXPECT_EQ(b.resp, axi::Resp::kOkay);
    EXPECT_TRUE(guard.claimed());
    EXPECT_EQ(guard.owner(), 7U);

    // Owner reads a register: echo target returns the offset.
    mgr.send_ar(axi::make_ar(7, 0x1020, 1, 3));
    const axi::RFlit r = test::collect_read_burst(ctx, ch, 1);
    EXPECT_EQ(r.resp, axi::Resp::kOkay);
    std::uint32_t v = 0;
    std::memcpy(&v, r.data.bytes.data(), 4);
    EXPECT_EQ(v, 0x20U);
}

TEST_F(AxiToRegFixture, ForeignTidGetsSlverr) {
    axi::ManagerView mgr{ch};
    mgr.send_aw(axi::make_aw(7, 0x1000, 1, 3));
    ctx.step();
    axi::WFlit w;
    w.last = true;
    mgr.send_w(w);
    (void)test::collect_b(ctx, ch);
    // TID 8 tries to read config.
    mgr.send_ar(axi::make_ar(8, 0x1020, 1, 3));
    const axi::RFlit r = test::collect_read_burst(ctx, ch, 1);
    EXPECT_EQ(r.resp, axi::Resp::kSlvErr);
}

TEST_F(AxiToRegFixture, BurstAccessRejectedProtocolClean) {
    axi::ManagerView mgr{ch};
    mgr.send_ar(axi::make_ar(1, 0x1000, 4, 3));
    const axi::RFlit last = test::collect_read_burst(ctx, ch, 4);
    EXPECT_EQ(last.resp, axi::Resp::kSlvErr);
    EXPECT_TRUE(last.last) << "burst must terminate legally";
}

} // namespace
} // namespace realm::cfg
