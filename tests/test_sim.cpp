/// Unit tests for the simulation kernel: links, context, RNG, statistics.
#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/context.hpp"
#include "sim/link.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace realm::sim {
namespace {

TEST(Link, RegisteredTimingHidesSameCyclePush) {
    SimContext ctx;
    Link<int> link{ctx, 2, "l"};
    EXPECT_FALSE(link.can_pop());
    link.push(42);
    EXPECT_FALSE(link.can_pop()) << "registered link must hide same-cycle pushes";
    ctx.step();
    ASSERT_TRUE(link.can_pop());
    EXPECT_EQ(link.front(), 42);
    EXPECT_EQ(link.pop(), 42);
    EXPECT_FALSE(link.can_pop());
}

TEST(Link, PassthroughVisibleSameCycle) {
    SimContext ctx;
    Link<int> link{ctx, 2, "l", Link<int>::Timing::kPassthrough};
    link.push(7);
    ASSERT_TRUE(link.can_pop());
    EXPECT_EQ(link.pop(), 7);
}

TEST(Link, CapacityBackpressure) {
    SimContext ctx;
    Link<int> link{ctx, 2, "l"};
    link.push(1);
    link.push(2);
    EXPECT_FALSE(link.can_push());
    EXPECT_THROW(link.push(3), ContractViolation);
    ctx.step();
    EXPECT_EQ(link.pop(), 1);
    EXPECT_TRUE(link.can_push());
}

TEST(Link, SustainsOneTransferPerCycle) {
    // Producer and consumer alternating on a depth-2 link must reach a
    // steady state of one item per cycle regardless of who runs first.
    SimContext ctx;
    Link<int> link{ctx, 2, "l"};
    int produced = 0;
    int consumed = 0;
    for (int cycle = 0; cycle < 100; ++cycle) {
        if (link.can_pop()) {
            link.pop();
            ++consumed;
        }
        if (link.can_push()) {
            link.push(produced);
            ++produced;
        }
        ctx.step();
    }
    EXPECT_GE(consumed, 98) << "expected ~1 item/cycle throughput";
}

TEST(Link, FifoOrderPreserved) {
    SimContext ctx;
    Link<int> link{ctx, 8, "l"};
    for (int i = 0; i < 5; ++i) { link.push(i); }
    ctx.step();
    for (int i = 0; i < 5; ++i) { EXPECT_EQ(link.pop(), i); }
}

TEST(Link, PushObserverSeesEveryPushAtTheProducersCycle) {
    struct Seen {
        const SimContext* ctx = nullptr;
        std::vector<std::pair<int, Cycle>> pushes;
        static void on_push(void* self, const int& v) {
            auto* seen = static_cast<Seen*>(self);
            seen->pushes.emplace_back(v, seen->ctx->now());
        }
    };
    SimContext ctx;
    Seen seen{&ctx, {}};
    Link<int> link{ctx, 2, "l"};
    link.set_push_observer({&Seen::on_push, &seen});
    link.push(1);
    ctx.step();
    link.push(2);
    EXPECT_EQ(link.pop(), 1) << "the observer holds nothing back";
    ASSERT_EQ(seen.pushes.size(), 2U);
    EXPECT_EQ(seen.pushes[0], std::make_pair(1, Cycle{0}));
    EXPECT_EQ(seen.pushes[1], std::make_pair(2, Cycle{1}));
    EXPECT_THROW(link.set_push_observer({&Seen::on_push, &seen}), ContractViolation)
        << "one observer per link";
}

class CountingComponent : public Component {
public:
    using Component::Component;
    void tick() override { ++ticks_; }
    int ticks_ = 0;
};

TEST(SimContext, TicksComponentsInOrder) {
    SimContext ctx;
    CountingComponent a{ctx, "a"};
    CountingComponent b{ctx, "b"};
    ctx.run(5);
    EXPECT_EQ(a.ticks_, 5);
    EXPECT_EQ(b.ticks_, 5);
    EXPECT_EQ(ctx.now(), 5U);
}

TEST(SimContext, RunUntilStopsOnPredicate) {
    SimContext ctx;
    CountingComponent a{ctx, "a"};
    EXPECT_TRUE(ctx.run_until([&] { return a.ticks_ >= 4; }, 100));
    EXPECT_EQ(a.ticks_, 4);
    EXPECT_FALSE(ctx.run_until([&] { return false; }, 10));
}

TEST(SimContext, ComponentUnregistersOnDestruction) {
    SimContext ctx;
    {
        CountingComponent a{ctx, "a"};
        EXPECT_EQ(ctx.component_count(), 1U);
    }
    EXPECT_EQ(ctx.component_count(), 0U);
    ctx.step(); // must not touch the destroyed component
}

TEST(Rng, DeterministicAcrossInstances) {
    Rng a{123};
    Rng b{123};
    for (int i = 0; i < 1000; ++i) { ASSERT_EQ(a.next(), b.next()); }
}

TEST(Rng, UniformStaysInRange) {
    Rng rng{7};
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.uniform(10, 20);
        ASSERT_GE(v, 10U);
        ASSERT_LE(v, 20U);
    }
}

TEST(Rng, UniformCoversRangeRoughlyEvenly) {
    Rng rng{99};
    std::array<int, 8> histogram{};
    for (int i = 0; i < 80000; ++i) { ++histogram[rng.uniform(0, 7)]; }
    for (const int count : histogram) {
        EXPECT_GT(count, 9000);
        EXPECT_LT(count, 11000);
    }
}

TEST(LatencyStat, TracksMinMeanMax) {
    LatencyStat s;
    s.record(4);
    s.record(8);
    s.record(12);
    EXPECT_EQ(s.count(), 3U);
    EXPECT_EQ(s.min(), 4U);
    EXPECT_EQ(s.max(), 12U);
    EXPECT_DOUBLE_EQ(s.mean(), 8.0);
}

TEST(Check, ViolationCarriesLocationAndMessage) {
    try {
        REALM_EXPECTS(false, "something broke");
        FAIL() << "should have thrown";
    } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("something broke"), std::string::npos);
        EXPECT_NE(what.find("test_sim.cpp"), std::string::npos);
    }
}

} // namespace
} // namespace realm::sim
