#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hh"
#include "util/rng.hh"

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

/**
 * Drives an EventQueue and a reference model side by side: the
 * reference is the set of pending events sorted on (tick, priority,
 * sequence), and every firing must take its first element.  Handlers
 * schedule 0-3 follow-ups at the current tick, between now and the
 * earliest pending event, or far ahead, each at a random priority.
 */
class QueueFuzz
{
  public:
    explicit QueueFuzz(std::uint64_t seed) : rng_(seed) {}

    /** One random call, step(), runUntil() or schedule(), checked
     *  against the reference. */
    void
    randomCall()
    {
        const std::uint64_t pick = rng_.nextBelow(10);
        const std::uint64_t before = firings_;
        if (pick < 4) {
            const bool wanted = !pending_.empty();
            const bool stepped = eq_.step();
            EXPECT_EQ(stepped, wanted);
            EXPECT_EQ(firings_ - before, wanted ? 1u : 0u);
        } else if (pick < 6) {
            const Tick until = eq_.now() + rng_.nextBelow(20000);
            const std::uint64_t executed = eq_.runUntil(until);
            EXPECT_EQ(executed, firings_ - before);
            if (!pending_.empty()) {
                EXPECT_GE(std::get<0>(*pending_.begin()), until);
            }
            now_ = std::max(now_, until);
        } else {
            scheduleRandom();
        }
        EXPECT_EQ(eq_.size(), pending_.size());
        EXPECT_EQ(eq_.empty(), pending_.empty());
        EXPECT_EQ(eq_.now(), now_);
    }

    /** Events fired so far. */
    std::uint64_t firings() const { return firings_; }
    /** Firings that were not the reference's first event, or saw the
     *  wrong size, emptiness or time. */
    std::uint64_t mismatches() const { return mismatches_; }
    /** Events scheduled strictly before every pending event. */
    std::uint64_t scheduledFirst() const { return scheduledFirst_; }

  private:
    /** (tick, priority, sequence): the queue's documented order. */
    using Key = std::tuple<Tick, int, std::uint64_t>;

    /** Schedule one event at a random tick and priority; its argument
     *  is its sequence number. */
    void
    scheduleRandom()
    {
        const Tick now = eq_.now();
        Tick when = now;
        const Tick first =
            pending_.empty() ? now : std::get<0>(*pending_.begin());
        switch (rng_.nextBelow(3)) {
          case 0: // the current tick
            break;
          case 1: // before every pending event, where there is room
            if (first > now)
                when = now + rng_.nextBelow(first - now);
            break;
          default: // far ahead
            when = now + 1000 + rng_.nextBelow(100000);
        }
        const auto prio = static_cast<EventPriority>(rng_.nextBelow(3));
        const std::uint64_t seq = seq_++;
        pending_.emplace(when, static_cast<int>(prio), seq);
        scheduledFirst_ += std::get<2>(*pending_.begin()) == seq;
        eq_.schedule(when, fire, this, seq, prio);
    }

    static void
    fire(void* self, std::uint64_t seq)
    {
        static_cast<QueueFuzz*>(self)->onFire(seq);
    }

    void
    onFire(std::uint64_t seq)
    {
        ++firings_;
        const Key first = *pending_.begin();
        pending_.erase(pending_.begin());
        now_ = std::get<0>(first);
        if (std::get<2>(first) != seq || eq_.now() != now_ ||
            eq_.size() != pending_.size() ||
            eq_.empty() != pending_.empty())
            ++mismatches_;
        // No follow-ups while the population is large keeps it
        // bounded.
        const std::uint64_t follow =
            pending_.size() > 500 ? 0 : rng_.nextBelow(4);
        for (std::uint64_t i = 0; i < follow; ++i)
            scheduleRandom();
    }

    EventQueue eq_;
    Rng rng_;
    std::set<Key> pending_;
    std::uint64_t seq_ = 0;
    Tick now_ = 0;
    std::uint64_t firings_ = 0;
    std::uint64_t mismatches_ = 0;
    std::uint64_t scheduledFirst_ = 0;
};

class EventQueueFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EventQueueFuzzTest, FiresInSortedReferenceOrder)
{
    QueueFuzz fuzz(GetParam());
    for (int call = 0; call < 20000; ++call) {
        fuzz.randomCall();
        ASSERT_FALSE(HasFailure()) << "diverged at call " << call;
        ASSERT_EQ(fuzz.mismatches(), 0u) << "at call " << call;
    }
    EXPECT_GT(fuzz.firings(), 10000u);
    // Many events land ahead of everything pending, so the front of
    // the queue is exercised as much as the heap behind it.
    EXPECT_GT(fuzz.scheduledFirst(), 2000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzzTest,
                         ::testing::Values(1, 2, 3, 4));

} // namespace
} // namespace cchunter
