#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace cchunter
{
namespace
{

TEST(EventQueueTest, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueueTest, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueueTest, SameTickOrderedByPriorityThenSequence)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); },
                EventPriority::Default);
    eq.schedule(10, [&] { order.push_back(3); }, EventPriority::Late);
    eq.schedule(10, [&] { order.push_back(1); },
                EventPriority::Scheduler);
    eq.schedule(10, [&] { order.push_back(4); }, EventPriority::Late);
    eq.runUntil(11);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilIsExclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.runUntil(10);
    EXPECT_EQ(fired, 0);
    eq.runUntil(11);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> tick = [&] {
        ++count;
        if (count < 5)
            eq.schedule(eq.now() + 10, tick);
    };
    eq.schedule(0, tick);
    const auto executed = eq.runUntil(1000);
    EXPECT_EQ(executed, 5u);
    EXPECT_EQ(count, 5);
}

TEST(EventQueueTest, SchedulingIntoPastPanics)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.runUntil(100);
    EXPECT_ANY_THROW(eq.schedule(10, [] {}));
}

TEST(EventQueueTest, StepExecutesOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { ++fired; });
    eq.schedule(6, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueueTest, ManySameKeyEventsFireInScheduleOrder)
{
    // A binary heap is not stable; the insertion sequence alone must
    // order hundreds of equal (tick, priority) keys, interleaved with
    // other priorities and later ticks.
    // Groups in firing order: tick 10 at Scheduler, Default and Late
    // priority, then tick 20; group g gets every strides[g]-th index.
    const Tick ticks[] = {10, 10, 10, 20};
    const EventPriority prios[] = {
        EventPriority::Scheduler, EventPriority::Default,
        EventPriority::Late, EventPriority::Default};
    const int strides[] = {5, 1, 3, 7};

    EventQueue eq;
    std::vector<std::pair<int, int>> order;
    for (int i = 0; i < 300; ++i) {
        for (int g = 3; g >= 0; --g) {
            if (i % strides[g] == 0)
                eq.schedule(ticks[g],
                            [&order, g, i] { order.emplace_back(g, i); },
                            prios[g]);
        }
    }
    eq.runUntil(100);

    std::vector<std::pair<int, int>> expected;
    for (int g = 0; g < 4; ++g)
        for (int i = 0; i < 300; i += strides[g])
            expected.emplace_back(g, i);
    EXPECT_EQ(order, expected);
}

/** Callable that counts how often it is copied. */
struct CopyCounted
{
    int* copies;
    int* calls;

    CopyCounted(int* copies_, int* calls_)
        : copies(copies_), calls(calls_)
    {
    }
    CopyCounted(const CopyCounted& other)
        : copies(other.copies), calls(other.calls)
    {
        ++*copies;
    }
    CopyCounted(CopyCounted&&) = default;

    void operator()() const { ++*calls; }
};

TEST(EventQueueTest, PoppingMovesCallbacksOutWithoutCopying)
{
    EventQueue eq;
    int copies = 0;
    int calls = 0;
    for (Tick t = 0; t < 50; ++t)
        eq.schedule(50 - t, CopyCounted(&copies, &calls));
    eq.step();
    eq.runUntil(100);
    EXPECT_EQ(calls, 50);
    EXPECT_EQ(copies, 0);
}

TEST(EventQueueTest, ReturnsExecutedCount)
{
    EventQueue eq;
    for (Tick t = 0; t < 10; ++t)
        eq.schedule(t, [] {});
    EXPECT_EQ(eq.runUntil(5), 5u);
    EXPECT_EQ(eq.runUntil(100), 5u);
}

} // namespace
} // namespace cchunter
