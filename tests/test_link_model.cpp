/// Randomized model check of the ring-buffer `sim::Link` and
/// `noc::NocLink` against straightforward deque reference models with
/// per-entry cycle stamps. The production classes dropped the stamps (a
/// recent-count pair for `Link`) or keep them in per-VC rings over raw
/// slots (`NocLink`) to flatten the hot path; these sweeps pin the
/// observable behaviour to the naive semantics across capacities, timing
/// disciplines, and drain hooks.
#include "noc/credit.hpp"
#include "noc/packet.hpp"
#include "sim/check.hpp"
#include "sim/context.hpp"
#include "sim/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <tuple>
#include <vector>

namespace realm::sim {
namespace {

// --- Link vs a stamped-deque reference ---------------------------------------

/// The pre-flattening semantics, verbatim: a deque of (value, push cycle)
/// pairs where a registered entry is poppable strictly after its push cycle.
struct RefLink {
    struct Entry {
        int value;
        Cycle pushed_at;
    };
    std::deque<Entry> q;
    std::size_t capacity;
    bool registered;

    [[nodiscard]] bool can_push() const { return q.size() < capacity; }
    void push(int v, Cycle now) { q.push_back({v, now}); }
    [[nodiscard]] bool can_pop(Cycle now) const {
        return !q.empty() && (!registered || q.front().pushed_at < now);
    }
    int pop() {
        const int v = q.front().value;
        q.pop_front();
        return v;
    }
};

/// Hook log: every fired drain hook records the link's state *at firing
/// time*, proving the hook runs after the entry has left the buffer.
struct HookLog {
    const Link<int>* link = nullptr;
    std::uint32_t expected_arg = 0;
    std::vector<std::pair<std::uint64_t, std::size_t>> fired; // (popped, occ)

    static void on_pop(void* user, std::uint32_t arg) {
        auto* self = static_cast<HookLog*>(user);
        EXPECT_EQ(arg, self->expected_arg);
        self->fired.emplace_back(self->link->total_popped(),
                                 self->link->occupancy());
    }
};

class LinkModelSweep
    : public ::testing::TestWithParam<std::tuple<int, bool, unsigned>> {};

TEST_P(LinkModelSweep, AgreesWithTheStampedDequeModel) {
    const auto [capacity, registered, seed] = GetParam();
    SimContext ctx;
    Link<int> link{ctx, static_cast<std::size_t>(capacity), "dut",
                   registered ? Link<int>::Timing::kRegistered
                              : Link<int>::Timing::kPassthrough};
    RefLink ref{{}, static_cast<std::size_t>(capacity), registered};
    HookLog log;
    log.link = &link;
    log.expected_arg = 7;
    link.set_on_pop(PopHook{&HookLog::on_pop, &log, 7});

    std::mt19937 rng{seed};
    std::uniform_int_distribution<int> action{0, 99};
    int next_value = 0;
    std::uint64_t pops = 0;

    for (int step = 0; step < 2000; ++step) {
        const Cycle now = ctx.now();
        ASSERT_EQ(link.can_push(), ref.can_push()) << "step " << step;
        ASSERT_EQ(link.can_pop(), ref.can_pop(now)) << "step " << step;
        ASSERT_EQ(link.occupancy(), ref.q.size()) << "step " << step;
        if (link.can_pop()) {
            ASSERT_EQ(link.front(), ref.q.front().value) << "step " << step;
        }

        const int a = action(rng);
        if (a < 45) { // push (producers hold flits under backpressure)
            if (link.can_push()) {
                link.push(next_value);
                ref.push(next_value, now);
                ++next_value;
            }
        } else if (a < 85) { // pop
            if (link.can_pop()) {
                const int got = link.pop();
                ASSERT_EQ(got, ref.pop()) << "step " << step;
                ++pops;
                // Hook fired exactly once, after the entry left the ring.
                ASSERT_EQ(log.fired.size(), pops);
                EXPECT_EQ(log.fired.back().first, pops);
                EXPECT_EQ(log.fired.back().second, link.occupancy());
            }
        } else { // advance the clock
            ctx.step();
        }
    }
    EXPECT_EQ(link.total_popped(), pops);
    EXPECT_EQ(link.total_pushed(), static_cast<std::uint64_t>(next_value));
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesTimingsSeeds, LinkModelSweep,
    ::testing::Combine(::testing::Values(1, 2, 5), // inline ring + heap ring
                       ::testing::Bool(),          // registered / passthrough
                       ::testing::Values(0xC0FFEEU, 1U, 20260807U)));

// --- NocLink vs a per-VC stamped-deque reference -----------------------------

/// The link's contract, spelled out naively: per VC, a deque of committed
/// (packet, push cycle) entries, poppable `link_latency` cycles after the
/// push; in edge mode, pushes wait in a staging list until the cycle edge,
/// and the producer sees each VC's occupancy as of the last edge plus its
/// own staged pushes. One channel serializes every worm across all VCs.
struct RefNocLink {
    struct Entry {
        noc::NocPacket pkt;
        Cycle pushed_at;
    };
    struct Vc {
        std::deque<Entry> committed;
        std::uint32_t snap_count = 0;
        std::uint32_t snap_flits = 0;
        std::uint32_t staged_count = 0;
        std::uint32_t staged_flits = 0;

        [[nodiscard]] std::uint32_t flits() const {
            std::uint32_t sum = 0;
            for (const Entry& e : committed) { sum += e.pkt.flits; }
            return sum;
        }
    };

    noc::NocFlowConfig fc;
    bool edge;
    std::vector<Vc> vcs;
    std::vector<Entry> staged;
    Cycle busy_until = 0;

    [[nodiscard]] std::uint32_t producer_count(std::uint8_t vc) const {
        const Vc& v = vcs[vc];
        return edge ? v.snap_count + v.staged_count
                    : static_cast<std::uint32_t>(v.committed.size());
    }
    [[nodiscard]] std::uint32_t buffered_flits(std::uint8_t vc) const {
        const Vc& v = vcs[vc];
        return edge ? v.snap_flits + v.staged_flits : v.flits();
    }
    [[nodiscard]] bool can_push(std::uint32_t flits, std::uint8_t vc, Cycle now) const {
        return now >= busy_until && producer_count(vc) < fc.vc_depth &&
               buffered_flits(vc) + flits <= fc.vc_depth;
    }
    void push(const noc::NocPacket& pkt, Cycle now) {
        busy_until = now + pkt.flits;
        if (!edge) {
            vcs[pkt.vc].committed.push_back({pkt, now});
            return;
        }
        ++vcs[pkt.vc].staged_count;
        vcs[pkt.vc].staged_flits += pkt.flits;
        staged.push_back({pkt, now});
    }
    [[nodiscard]] bool can_pop(std::uint8_t vc, Cycle now) const {
        const std::deque<Entry>& q = vcs[vc].committed;
        return !q.empty() && q.front().pushed_at + fc.link_latency <= now;
    }
    noc::NocPacket pop(std::uint8_t vc) {
        const noc::NocPacket pkt = vcs[vc].committed.front().pkt;
        vcs[vc].committed.pop_front();
        return pkt;
    }
    [[nodiscard]] bool empty() const {
        return std::all_of(vcs.begin(), vcs.end(),
                           [](const Vc& v) { return v.committed.empty(); });
    }
    /// The cycle edge: staged pushes commit in push order, and the
    /// producer's view catches up with every commit and pop.
    void flush() {
        if (!edge) { return; }
        for (const Entry& e : staged) { vcs[e.pkt.vc].committed.push_back(e); }
        staged.clear();
        for (Vc& v : vcs) {
            v.snap_count = static_cast<std::uint32_t>(v.committed.size());
            v.snap_flits = v.flits();
            v.staged_count = 0;
            v.staged_flits = 0;
        }
    }
};

class NocLinkModelSweep
    : public ::testing::TestWithParam<std::tuple<int, bool, std::uint32_t, unsigned>> {};

TEST_P(NocLinkModelSweep, AgreesWithThePerVcStampedDequeModel) {
    const auto [num_vcs_param, edge, latency, seed] = GetParam();
    const auto num_vcs = static_cast<std::uint8_t>(num_vcs_param);
    noc::NocFlowConfig fc;
    fc.flits_per_packet = 4;
    fc.vc_depth = 6; // not a power of two: the ring wraps by modulo
    fc.link_latency = latency;
    SimContext ctx;
    std::vector<noc::NocLink::Slot> slots(noc::NocLink::slots_needed(fc, num_vcs));
    noc::NocLink link{ctx, "dut", fc, slots, num_vcs, edge};
    RefNocLink ref{fc, edge, std::vector<RefNocLink::Vc>(num_vcs), {}, 0};

    std::mt19937 rng{seed};
    std::uniform_int_distribution<int> action{0, 99};
    std::uniform_int_distribution<int> pick_vc{0, num_vcs - 1};
    std::uniform_int_distribution<int> pick_node{0, 63};
    std::uint16_t seq = 0;
    std::vector<std::uint64_t> pops(num_vcs, 0);

    // One channel serializes every VC, so more VCs need more steps for
    // each ring to wrap as often.
    const int steps = 20000 * std::max(2, num_vcs_param);
    for (int i = 0; i < steps; ++i) {
        const Cycle now = ctx.now();
        const std::string at = "step " + std::to_string(i);
        ASSERT_EQ(link.empty(), ref.empty()) << at;
        for (std::uint8_t vc = 0; vc < num_vcs; ++vc) {
            ASSERT_EQ(link.can_pop(vc), ref.can_pop(vc, now)) << at << " vc " << int{vc};
            ASSERT_EQ((link.occupied_vcs() >> vc & 1U) != 0, !ref.vcs[vc].committed.empty())
                << at << " vc " << int{vc};
            ASSERT_EQ(link.buffered_flits(vc), ref.buffered_flits(vc)) << at;
            for (const std::uint32_t flits : {1U, fc.flits_per_packet}) {
                ASSERT_EQ(link.can_push(flits, vc), ref.can_push(flits, vc, now))
                    << at << " vc " << int{vc} << " flits " << flits;
            }
        }

        const int a = action(rng);
        const auto vc = static_cast<std::uint8_t>(pick_vc(rng));
        if (a < 40) { // push a header or a data worm
            noc::NocPacket pkt;
            pkt.src = static_cast<noc::NodeId>(pick_node(rng));
            pkt.dest = static_cast<noc::NodeId>(pick_node(rng));
            pkt.vc = vc;
            pkt.seq = seq;
            const bool data = (a % 2) == 0;
            pkt.flits = static_cast<std::uint8_t>(fc.packet_flits(data));
            pkt.flit = data ? decltype(pkt.flit){axi::RFlit{}} : axi::AwFlit{};
            if (link.can_push(pkt)) {
                link.push(pkt);
                ref.push(pkt, now);
                ++seq;
            }
        } else if (a < 80) { // pop
            if (link.can_pop(vc)) {
                const noc::NocPacket got = link.pop(vc);
                const noc::NocPacket want = ref.pop(vc);
                ASSERT_EQ(got.src, want.src) << at;
                ASSERT_EQ(got.dest, want.dest) << at;
                ASSERT_EQ(got.seq, want.seq) << at;
                ASSERT_EQ(got.vc, want.vc) << at;
                ASSERT_EQ(got.flits, want.flits) << at;
                ASSERT_EQ(got.flit.index(), want.flit.index()) << at;
                ++pops[vc];
            }
        } else if (a < 95) { // advance the clock; the edge flushes a dirty link
            ctx.step();
            ref.flush();
        } else { // an extra, mid-cycle edge flush: flushing is idempotent
            link.flush_edge(now);
            ref.flush();
        }
        ASSERT_NO_THROW(link.check_bounded()) << at;
    }
    for (std::uint8_t vc = 0; vc < num_vcs; ++vc) {
        EXPECT_GE(pops[vc], 100U * fc.vc_depth)
            << "VC " << int{vc} << " ring wrapped fewer than 100 times";
    }
}

INSTANTIATE_TEST_SUITE_P(
    VcsModesLatenciesSeeds, NocLinkModelSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),          // VCs
                       ::testing::Bool(),                   // edge-registered
                       ::testing::Values(1U, 3U),           // link_latency
                       ::testing::Values(0xC0FFEEU, 7U)));

TEST(NocLinkModel, AVcPastTheLinksOwnCountIsRejected) {
    // The per-VC state is an inline array of four, so VC 1 of a one-VC link
    // is in the array but not on the link: every accessor must refuse it.
    noc::NocFlowConfig fc;
    SimContext ctx;
    std::vector<noc::NocLink::Slot> slots(noc::NocLink::slots_needed(fc, 1));
    noc::NocLink link{ctx, "one-vc", fc, slots};
    noc::NocPacket pkt;
    pkt.vc = 1;
    EXPECT_THROW((void)link.can_push(1, 1), ContractViolation);
    EXPECT_THROW((void)link.can_push(pkt), ContractViolation);
    EXPECT_THROW(link.push(pkt), ContractViolation);
    EXPECT_THROW((void)link.can_pop(1), ContractViolation);
    EXPECT_THROW((void)link.front(1), ContractViolation);
    EXPECT_THROW((void)link.pop(1), ContractViolation);
    EXPECT_THROW((void)link.buffered_flits(1), ContractViolation);
    EXPECT_THROW((void)link.peak_buffered_flits(1), ContractViolation);
    EXPECT_TRUE(link.empty());
}

} // namespace
} // namespace realm::sim
