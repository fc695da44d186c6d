#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hh"

namespace cchunter
{
namespace
{

// Push, sift and pop copy entries as plain bytes: nothing a scheduled
// event carries can be copied more expensively than its record.
static_assert(std::is_trivially_copyable_v<EventQueue::Entry>);

/** Handler appending its argument to a std::vector<int>. */
void
record(void* order, std::uint64_t value)
{
    static_cast<std::vector<int>*>(order)->push_back(
        static_cast<int>(value));
}

/** Handler counting its firings in an int. */
void
count(void* counter, std::uint64_t)
{
    ++*static_cast<int*>(counter);
}

/** Handler doing nothing. */
void
ignore(void*, std::uint64_t)
{
}

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
    eq.schedule(30, record, &order, 3);
    eq.schedule(10, record, &order, 1);
    eq.schedule(20, record, &order, 2);
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueueTest, SameTickOrderedByPriorityThenSequence)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, record, &order, 2, EventPriority::Default);
    eq.schedule(10, record, &order, 3, EventPriority::Late);
    eq.schedule(10, record, &order, 1, EventPriority::Scheduler);
    eq.schedule(10, record, &order, 4, EventPriority::Late);
    eq.runUntil(11);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilIsExclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, count, &fired);
    eq.runUntil(10);
    EXPECT_EQ(fired, 0);
    eq.runUntil(11);
    EXPECT_EQ(fired, 1);
}

/** Fires five times, each firing scheduling the next 10 ticks on. */
struct Ticker
{
    EventQueue eq;
    int count = 0;

    static void
    tick(void* self, std::uint64_t)
    {
        auto* t = static_cast<Ticker*>(self);
        if (++t->count < 5)
            t->eq.schedule(t->eq.now() + 10, tick, t);
    }
};

TEST(EventQueueTest, EventsMayScheduleMoreEvents)
{
    Ticker t;
    t.eq.schedule(0, Ticker::tick, &t);
    const auto executed = t.eq.runUntil(1000);
    EXPECT_EQ(executed, 5u);
    EXPECT_EQ(t.count, 5);
}

TEST(EventQueueTest, SchedulingIntoPastPanics)
{
    EventQueue eq;
    eq.schedule(50, ignore, nullptr);
    eq.runUntil(100);
    EXPECT_ANY_THROW(eq.schedule(10, ignore, nullptr));
}

TEST(EventQueueTest, StepExecutesOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, count, &fired);
    eq.schedule(6, count, &fired);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueueTest, ManySameKeyEventsFireInScheduleOrder)
{
    // A binary heap is not stable; the packed order word
    // (priority << 56 | sequence) alone must order hundreds of equal
    // (tick, priority) keys, interleaved with other priorities and
    // later ticks.  A group scheduled later with a higher priority
    // still fires first, so the priority bits dominate the sequence.
    // Groups in firing order: tick 10 at Scheduler, Default and Late
    // priority, then tick 20; group g gets every strides[g]-th index.
    const Tick ticks[] = {10, 10, 10, 20};
    const EventPriority prios[] = {
        EventPriority::Scheduler, EventPriority::Default,
        EventPriority::Late, EventPriority::Default};
    const int strides[] = {5, 1, 3, 7};

    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 300; ++i) {
        for (int g = 3; g >= 0; --g) {
            if (i % strides[g] == 0)
                eq.schedule(ticks[g], record, &order,
                            static_cast<std::uint64_t>(g * 1000 + i),
                            prios[g]);
        }
    }
    eq.runUntil(100);

    std::vector<int> expected;
    for (int g = 0; g < 4; ++g)
        for (int i = 0; i < 300; i += strides[g])
            expected.push_back(g * 1000 + i);
    EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, ReturnsExecutedCount)
{
    EventQueue eq;
    for (Tick t = 0; t < 10; ++t)
        eq.schedule(t, ignore, nullptr);
    EXPECT_EQ(eq.runUntil(5), 5u);
    EXPECT_EQ(eq.runUntil(100), 5u);
}

} // namespace
} // namespace cchunter
