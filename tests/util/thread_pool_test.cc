#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "util/thread_pool.hh"

namespace cchunter
{
namespace
{

TEST(ThreadPoolTest, ReportsSize)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_GE(ThreadPool::hardwareConcurrency(), 1u);
}

TEST(ThreadPoolTest, ZeroThreadsUsesHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), ThreadPool::hardwareConcurrency());
}

TEST(ThreadPoolTest, DestructorDrainsQueuedJobs)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.run([&ran]() { ++ran; });
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<int> hits(1000, 0);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { ++hits[i]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop)
{
    ThreadPool pool(2);
    bool called = false;
    pool.parallelFor(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForRethrowsBodyException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(16,
                                  [](std::size_t i) {
                                      if (i == 7)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForRunsConcurrently)
{
    // With 4 workers plus the caller, two sleeping items must overlap;
    // generous margin keeps this robust on loaded machines.
    ThreadPool pool(4);
    const auto start = std::chrono::steady_clock::now();
    pool.parallelFor(4, [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    });
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  elapsed)
                  .count(),
              390);
}

TEST(ThreadPoolTest, NestedParallelForCompletes)
{
    // Inner parallel sections run from worker threads; caller
    // participation must keep them from deadlocking even when every
    // worker is occupied by the outer loop.
    ThreadPool pool(2);
    std::vector<std::vector<int>> sums(8, std::vector<int>(32, 0));
    pool.parallelFor(sums.size(), [&](std::size_t outer) {
        pool.parallelFor(sums[outer].size(), [&, outer](std::size_t i) {
            sums[outer][i] = static_cast<int>(outer * 100 + i);
        });
    });
    for (std::size_t outer = 0; outer < sums.size(); ++outer)
        for (std::size_t i = 0; i < sums[outer].size(); ++i)
            EXPECT_EQ(sums[outer][i],
                      static_cast<int>(outer * 100 + i));
}

TEST(ThreadPoolTest, ParallelForExceptionDoesNotDeadlockCaller)
{
    // Regression: a body throwing on a worker (or on the caller's own
    // participation) must leave the caller's wait satisfiable — the
    // fleet shards fan tenants through parallelFor, and a single bad
    // tenant must not hang the whole audit.  The test completing at
    // all is the assertion; the poisoned range must also stop claiming
    // new work rather than grind through every remaining index.
    ThreadPool pool(4);
    const std::size_t count = 16 * (pool.size() + 1);
    std::atomic<std::size_t> executed{0};
    EXPECT_THROW(
        pool.parallelFor(count,
                         [&](std::size_t i) {
                             if (i == 0)
                                 throw std::runtime_error("tenant 0");
                             ++executed;
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(1));
                         }),
        std::runtime_error);
    // Every drainer finishes at most the item it was running when the
    // failure was recorded, then abandons the range.
    EXPECT_LT(executed.load(), count);
}

TEST(ThreadPoolTest, ParallelForAllBodiesThrowingStillReturns)
{
    ThreadPool pool(4);
    std::atomic<int> attempts{0};
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](std::size_t) {
                                      ++attempts;
                                      throw std::runtime_error("all");
                                  }),
                 std::runtime_error);
    EXPECT_GE(attempts.load(), 1);
}

TEST(ThreadPoolTest, ParallelForNestedInnerThrowPropagates)
{
    // An exception escaping an inner parallel section must unwind
    // through the outer one without deadlocking either level.
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallelFor(8,
                         [&](std::size_t outer) {
                             pool.parallelFor(
                                 8, [&, outer](std::size_t i) {
                                     if (outer == 3 && i == 5)
                                         throw std::runtime_error(
                                             "inner");
                                 });
                         }),
        std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForUsableAfterException)
{
    // A poisoned range must not wedge the pool: subsequent parallel
    // sections run to completion with every index covered.
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(32,
                                  [](std::size_t i) {
                                      if (i % 2 == 0)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    std::vector<int> hits(512, 0);
    pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForNoBodyRunsAfterReturn)
{
    // Helper tasks may be scheduled long after the caller returned
    // from a poisoned range; they must find the range closed and never
    // touch the body again.  Destroying the pool drains any stragglers
    // before `live` leaves scope.
    std::atomic<bool> live{true};
    {
        ThreadPool pool(4);
        for (int round = 0; round < 16; ++round) {
            try {
                pool.parallelFor(64, [&](std::size_t i) {
                    ASSERT_TRUE(live.load());
                    if (i == 1)
                        throw std::runtime_error("poison");
                });
            } catch (const std::runtime_error&) {
            }
        }
    }
    live = false;
}

TEST(ThreadPoolTest, ParallelForDeterministicByIndex)
{
    // Scheduling is dynamic but results written by index must be
    // identical run to run.
    ThreadPool pool(4);
    std::vector<std::uint64_t> a(256), b(256);
    auto fill = [](std::vector<std::uint64_t>& out) {
        return [&out](std::size_t i) {
            std::uint64_t v = i + 1;
            for (int step = 0; step < 1000; ++step)
                v = v * 6364136223846793005ull + 1442695040888963407ull;
            out[i] = v;
        };
    };
    pool.parallelFor(a.size(), fill(a));
    pool.parallelFor(b.size(), fill(b));
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace cchunter
