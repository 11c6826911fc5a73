/** @file Unit tests for the discrete-event engine. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/event_queue.hh"

namespace carve {
namespace {

TEST(EventQueue, StartsAtTimeZeroEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, EqualTickEventsFireInSchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterIsRelativeToNow)
{
    EventQueue eq;
    Cycle seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(50, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10)
            eq.scheduleAfter(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.now(), 9u);
}

TEST(EventQueue, RunWithLimitStopsEarly)
{
    EventQueue eq;
    for (Cycle t = 0; t < 10; ++t)
        eq.schedule(t, [] {});
    EXPECT_EQ(eq.run(4), 4u);
    EXPECT_EQ(eq.pending(), 6u);
}

TEST(EventQueue, ExecutedCountsLifetimeEvents)
{
    EventQueue eq;
    for (Cycle t = 0; t < 5; ++t)
        eq.schedule(t, [] {});
    eq.run();
    for (Cycle t = 0; t < 3; ++t)
        eq.schedule(eq.now() + t, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 8u);
}

TEST(EventQueueDeathTest, SchedulingInThePastIsFatal)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    // The diagnostic must name the offending tick and current time.
    EXPECT_DEATH(eq.schedule(50, [] {}), "when=50 now=100");
}

TEST(EventQueue, SchedulingAtNowIsAllowed)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(10, [&] {
        eq.schedule(eq.now(), [&] { fired = true; });
    });
    eq.run();
    EXPECT_TRUE(fired);
}

// ---- calendar-specific behaviour ----------------------------------

TEST(EventQueue, FarHorizonEventsExecuteInOrder)
{
    // Events far beyond the near-horizon ring live in the overflow
    // heap and must migrate into the ring, preserving (tick, seq)
    // order against ring-resident events.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1'000'000, [&] { order.push_back(4); });
    eq.schedule(50'000, [&] { order.push_back(3); });
    eq.schedule(5'000, [&] { order.push_back(2); });
    eq.schedule(3, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 1'000'000u);
}

TEST(EventQueue, FarAndNearEventsAtSameTickKeepSeqOrder)
{
    // First event lands in the far heap (beyond the horizon at
    // schedule time); events scheduled later for the same tick from
    // inside the window must still fire *after* it.
    EventQueue eq;
    std::vector<int> order;
    const Cycle t = 5'000;
    eq.schedule(t, [&] { order.push_back(1) ; });
    eq.schedule(t - 10, [&] {
        eq.schedule(t, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RandomScheduleFiresInTickSeqOrder)
{
    // A pseudo-random cascade of events must fire in exactly the
    // order of a sort on (tick, scheduling sequence). Delays reach
    // past the 1024-cycle ring horizon (far-heap migration), one in
    // eight is zero (same-tick cascades), and the run first stops at
    // a runWindow() end boundary before draining.
    EventQueue eq;
    std::vector<Cycle> when;  // indexed by scheduling sequence
    std::vector<std::size_t> fired;
    std::uint64_t rng = 12345;
    std::function<void(std::size_t)> fire;
    const auto add = [&](Cycle t) {
        const std::size_t seq = when.size();
        when.push_back(t);
        eq.schedule(t, [&fire, seq] { fire(seq); });
    };
    fire = [&](std::size_t seq) {
        EXPECT_EQ(eq.now(), when[seq]);
        fired.push_back(seq);
        for (int k = 0; k < 2 && when.size() < 2000; ++k) {
            rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
            const std::uint64_t r = rng >> 33;
            add(eq.now() + (r % 8 == 0 ? 0 : 1 + (r >> 3) % 2048));
        }
    };
    add(0);

    const auto tickSeqOrder = [&](Cycle end) {
        std::vector<std::size_t> order;
        for (std::size_t seq = 0; seq < when.size(); ++seq)
            if (when[seq] < end)
                order.push_back(seq);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return when[a] < when[b];
                         });
        return order;
    };

    const Cycle end = 5'000;
    const std::uint64_t n = eq.runWindow(end);
    EXPECT_EQ(n, fired.size());
    EXPECT_EQ(fired, tickSeqOrder(end));
    ASSERT_GT(fired.size(), 100u);
    ASSERT_GT(eq.pending(), 100u);
    EXPECT_LT(eq.now(), end);  // never advanced to the boundary
    EXPECT_GE(eq.nextTick(), end);

    eq.run();
    EXPECT_EQ(fired, tickSeqOrder(EventQueue::no_event));
    EXPECT_EQ(fired.size(), when.size());
}

TEST(EventQueue, RunWindowStopsAtEndOrLimit)
{
    EventQueue eq;
    for (Cycle t = 0; t < 10; ++t)
        eq.schedule(t, [] {});
    EXPECT_EQ(eq.runWindow(5, 3), 3u);
    EXPECT_EQ(eq.now(), 2u);
    EXPECT_EQ(eq.runWindow(5), 2u);
    EXPECT_EQ(eq.now(), 4u);
    EXPECT_EQ(eq.nextTick(), 5u);
    EXPECT_EQ(eq.pending(), 5u);
}

// ---- EventFn / bindEvent ------------------------------------------

TEST(EventFn, InvokesInlineCallable)
{
    int hits = 0;
    EventFn fn([&hits] { ++hits; });
    ASSERT_TRUE(fn);
    fn();
    EXPECT_EQ(hits, 1);
}

TEST(EventFn, MoveTransfersOwnership)
{
    int hits = 0;
    EventFn a([&hits] { ++hits; });
    EventFn b(std::move(a));
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(hits, 1);
}

TEST(EventFn, OversizedCallableTakesBoxedPath)
{
    // Captures beyond the inline buffer must still work (the miss
    // path continuation in the RDC controller relies on this).
    struct Big
    {
        std::uint64_t pad[16];
    };
    Big big{};
    big.pad[15] = 42;
    std::uint64_t seen = 0;
    EventFn fn([big, &seen] { seen = big.pad[15]; });
    fn();
    EXPECT_EQ(seen, 42u);
}

namespace bind_test {

struct Counter
{
    int calls = 0;
    int last = 0;

    void
    bump(int amount)
    {
        ++calls;
        last = amount;
    }

    void
    wide(std::uint64_t a, std::uint64_t b, std::uint64_t c)
    {
        ++calls;
        last = static_cast<int>(a + b + c);
    }
};

} // namespace bind_test

TEST(EventFn, BindEventPassesBoundArguments)
{
    bind_test::Counter c;
    EventQueue eq;
    eq.schedule(5, bindEvent<&bind_test::Counter::bump>(&c, 17));
    eq.schedule(9, bindEvent<&bind_test::Counter::bump>(&c, 23));
    eq.run();
    EXPECT_EQ(c.calls, 2);
    EXPECT_EQ(c.last, 23);
}

TEST(EventFn, BindEventFitsThisPlusThreeWords)
{
    // The widest hot-path shape: a this-pointer plus 24 bytes of
    // bound arguments exactly fills EventFn's inline storage.
    static_assert(sizeof(detail::BoundEvent<
                      &bind_test::Counter::wide, bind_test::Counter,
                      std::uint64_t, std::uint64_t, std::uint64_t>) ==
                  EventFn::inline_size);
    bind_test::Counter c;
    EventQueue eq;
    eq.schedule(1, bindEvent<&bind_test::Counter::wide>(
                       &c, std::uint64_t{1}, std::uint64_t{2},
                       std::uint64_t{4}));
    eq.run();
    EXPECT_EQ(c.calls, 1);
    EXPECT_EQ(c.last, 7);
}

} // namespace
} // namespace carve
