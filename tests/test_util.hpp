/// \file
/// \brief Shared helpers for driving AXI channels by hand in unit tests, and
///        for naming their scratch files.
#pragma once

#include "axi/builder.hpp"
#include "axi/channel.hpp"
#include "sim/context.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <functional>
#include <string>

namespace realm::test {

/// A path for a scratch file called `name`: in gtest's temp directory and
/// prefixed with the process id, so concurrent copies of one test binary
/// never write the same file.
inline std::string scratch_path(const std::string& name) {
    return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

/// Steps `ctx` until `pred` holds, failing the test after `max_cycles`.
inline void step_until(sim::SimContext& ctx, const std::function<bool()>& pred,
                       sim::Cycle max_cycles = 10000) {
    ASSERT_TRUE(ctx.run_until(pred, max_cycles))
        << "condition not reached within " << max_cycles << " cycles";
}

/// Pushes a whole write burst (AW + beats) into a channel's manager side,
/// stepping the simulation as needed to respect link capacity.
inline void push_write_burst(sim::SimContext& ctx, axi::AxiChannel& ch, axi::IdT id,
                             axi::Addr addr, std::uint32_t beats, std::uint32_t beat_bytes,
                             std::uint8_t fill = 0xA5) {
    axi::ManagerView mgr{ch};
    step_until(ctx, [&] { return mgr.can_send_aw(); });
    mgr.send_aw(axi::make_aw(id, addr, beats, axi::size_of_bus(beat_bytes), ctx.now()));
    for (std::uint32_t i = 0; i < beats; ++i) {
        step_until(ctx, [&] { return mgr.can_send_w(); });
        axi::WFlit w;
        for (std::uint32_t b = 0; b < beat_bytes; ++b) {
            w.data.bytes[b] = static_cast<std::uint8_t>(fill + i + b);
        }
        w.last = i + 1 == beats;
        mgr.send_w(w);
    }
}

/// Collects `beats` R beats for `id`, stepping as needed; returns the last.
inline axi::RFlit collect_read_burst(sim::SimContext& ctx, axi::AxiChannel& ch,
                                     std::uint32_t beats) {
    axi::ManagerView mgr{ch};
    axi::RFlit last{};
    for (std::uint32_t i = 0; i < beats; ++i) {
        step_until(ctx, [&] { return mgr.has_r(); });
        last = mgr.recv_r();
        EXPECT_EQ(last.last, i + 1 == beats) << "beat " << i;
    }
    return last;
}

/// Waits for and pops a single B response.
inline axi::BFlit collect_b(sim::SimContext& ctx, axi::AxiChannel& ch) {
    axi::ManagerView mgr{ch};
    step_until(ctx, [&] { return mgr.has_b(); });
    return mgr.recv_b();
}

} // namespace realm::test
