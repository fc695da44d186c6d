#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/bounded_queue.hh"

namespace cchunter
{
namespace
{

TEST(BoundedQueueTest, ZeroCapacityThrows)
{
    EXPECT_ANY_THROW(BoundedQueue<int>(0));
}

TEST(BoundedQueueTest, FifoOrder)
{
    BoundedQueue<int> q(4);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.push(3));
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    // Nothing is left behind: once closed, the next pop ends.
    q.close();
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueueTest, HighWaterMarkTracksDeepestDepth)
{
    BoundedQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.push(3);
    q.pop();
    q.pop();
    q.push(4);
    EXPECT_EQ(q.highWaterMark(), 3u);
    // Exactly two items remain, in order.
    q.close();
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 4);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueueTest, BlockPolicyAppliesBackpressure)
{
    BoundedQueue<int> q(1);
    q.push(1);
    std::atomic<bool> second_pushed{false};
    std::thread producer([&] {
        q.push(2); // blocks until the consumer makes room
        second_pushed = true;
    });
    // The producer must be stuck behind the full queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(second_pushed.load());
    EXPECT_EQ(q.pop(), 1);
    producer.join();
    EXPECT_TRUE(second_pushed.load());
    EXPECT_EQ(q.pop(), 2); // nothing lost to the full queue
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer)
{
    BoundedQueue<int> q(1);
    q.push(1);
    std::thread producer([&] {
        // Blocked on the full queue until close(); the push is then
        // definitively rejected.
        EXPECT_FALSE(q.push(2));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    producer.join();
    EXPECT_FALSE(q.push(3)); // still closed
    // The queued item survives the close; pops drain then end.
    EXPECT_EQ(q.pop(), 1);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer)
{
    BoundedQueue<int> q(1);
    std::thread consumer([&] {
        // Blocked on the empty queue until close().
        EXPECT_FALSE(q.pop().has_value());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    consumer.join();
}

TEST(BoundedQueueTest, PushAfterCloseRejected)
{
    BoundedQueue<int> q(2);
    q.push(1);
    q.close();
    EXPECT_FALSE(q.push(2));
    EXPECT_EQ(q.pop(), 1);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueueTest, PushRacingCloseNeverBlocksForever)
{
    // A producer blocked on a full queue and a closer racing it: the
    // push must return promptly with a definite verdict (accepted
    // before close, rejected after), never hang.
    for (int round = 0; round < 50; ++round) {
        BoundedQueue<int> q(1);
        q.push(0);
        std::atomic<bool> returned{false};
        bool accepted = false;
        std::thread producer([&] {
            accepted = q.push(1);
            returned = true;
        });
        std::thread closer([&q] { q.close(); });
        closer.join();
        producer.join();
        EXPECT_TRUE(returned.load());
        // Drain whatever made it in; pop() must terminate too, and
        // the verdict must match what the queue holds.
        int drained = 0;
        while (q.pop().has_value())
            ++drained;
        EXPECT_EQ(drained, accepted ? 2 : 1);
        EXPECT_FALSE(q.push(2));
    }
}

TEST(BoundedQueueTest, PushWakesWaitingPop)
{
    BoundedQueue<int> q(2);
    std::thread consumer([&] {
        // Blocked on the empty queue until the push below.
        const auto v = q.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, 5);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(q.push(5));
    consumer.join();
}

TEST(BoundedQueueTest, ManyProducersOneConsumerDeliversEverything)
{
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 250;
    constexpr std::size_t kCapacity = 8;
    BoundedQueue<int> q(kCapacity);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; ++i)
                q.push(p * kPerProducer + i);
        });
    }
    std::vector<bool> seen(kProducers * kPerProducer, false);
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
        auto v = q.pop();
        ASSERT_TRUE(v.has_value());
        ASSERT_GE(*v, 0);
        ASSERT_LT(*v, kProducers * kPerProducer);
        EXPECT_FALSE(seen[static_cast<std::size_t>(*v)]);
        seen[static_cast<std::size_t>(*v)] = true;
    }
    for (auto& t : producers)
        t.join();
    q.close();
    EXPECT_FALSE(q.pop().has_value()); // every item was delivered once
    EXPECT_LE(q.highWaterMark(), kCapacity);
}

} // namespace
} // namespace cchunter
