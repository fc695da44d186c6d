/**
 * @file
 * Incremental sliding-window autocorrelation tests.
 *
 * The maintainer's correlogram must agree with the direct reference
 * (autocorrelogramNaive over the current window contents) within 1e-9
 * at every lag, across randomized append/evict schedules — window
 * filling, wrap-around, long steady-state streaming — for both binary
 * 0/1 label series (the production input) and arbitrary real series,
 * including real series with exact zeros (the skipped updates).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "detect/autocorrelation.hh"
#include "detect/incremental_autocorr.hh"
#include "util/rng.hh"

namespace cchunter
{
namespace
{

std::vector<double>
windowOf(const std::deque<double>& window)
{
    return {window.begin(), window.end()};
}

void
expectMatchesReference(const IncrementalAutocorrelation& inc,
                       const std::deque<double>& window,
                       std::size_t max_lag, const char* where)
{
    const auto reference =
        autocorrelogramNaive(windowOf(window), max_lag);
    const auto actual = inc.correlogram(max_lag);
    ASSERT_EQ(actual.size(), reference.size()) << where;
    for (std::size_t lag = 0; lag < actual.size(); ++lag)
        EXPECT_NEAR(actual[lag], reference[lag], 1e-9)
            << where << " lag=" << lag << " n=" << window.size();
}

TEST(IncrementalAutocorrTest, RejectsDegenerateConfiguration)
{
    EXPECT_ANY_THROW(IncrementalAutocorrelation(1, 16));
    EXPECT_ANY_THROW(IncrementalAutocorrelation(8, 0));
}

TEST(IncrementalAutocorrTest, QueryBeyondMaintainedLagThrows)
{
    IncrementalAutocorrelation inc(8, 16);
    inc.push(1.0);
    EXPECT_ANY_THROW(inc.correlogram(9));
}

TEST(IncrementalAutocorrTest, TinyAndDegenerateWindows)
{
    IncrementalAutocorrelation inc(8, 16);
    // Empty and single-sample windows are all-zero by definition.
    for (double v : inc.correlogram(8))
        EXPECT_DOUBLE_EQ(v, 0.0);
    inc.push(1.0);
    for (double v : inc.correlogram(8))
        EXPECT_DOUBLE_EQ(v, 0.0);
    // A constant window has zero variance: exactly zero, not noise —
    // the expanded denominator must cancel exactly for 0/1 labels.
    for (int i = 0; i < 10; ++i)
        inc.push(1.0);
    for (double v : inc.correlogram(8))
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(IncrementalAutocorrTest, MatchesReferenceWhileFilling)
{
    const std::size_t max_lag = 12;
    IncrementalAutocorrelation inc(max_lag, 64);
    std::deque<double> window;
    Rng rng(31);
    for (int i = 0; i < 64; ++i) {
        const double x = rng.nextDouble() < 0.5 ? 0.0 : 1.0;
        inc.push(x);
        window.push_back(x);
        expectMatchesReference(inc, window, max_lag, "filling");
    }
    EXPECT_EQ(inc.size(), 64u);
    EXPECT_EQ(inc.evictions(), 0u);
}

TEST(IncrementalAutocorrTest, MatchesReferenceAcrossEvictions)
{
    const std::size_t max_lag = 16;
    const std::size_t capacity = 48;
    IncrementalAutocorrelation inc(max_lag, capacity);
    std::deque<double> window;
    Rng rng(32);
    for (int i = 0; i < 400; ++i) {
        const double x = rng.nextDouble() < 0.3 ? 0.0 : 1.0;
        inc.push(x);
        window.push_back(x);
        if (window.size() > capacity)
            window.pop_front();
        if (i % 7 == 0)
            expectMatchesReference(inc, window, max_lag, "streaming");
    }
    EXPECT_EQ(inc.size(), capacity);
    EXPECT_EQ(inc.evictions(), 400u - capacity);
}

TEST(IncrementalAutocorrTest, MatchesReferenceOnGaussianSeries)
{
    // Real-valued series exercise the non-exact arithmetic; the
    // incremental sums must still track the reference within 1e-9
    // after hundreds of evictions.
    const std::size_t max_lag = 10;
    const std::size_t capacity = 32;
    IncrementalAutocorrelation inc(max_lag, capacity);
    std::deque<double> window;
    Rng rng(33);
    for (int i = 0; i < 500; ++i) {
        const double x = rng.nextGaussian(0.0, 1.0);
        inc.push(x);
        window.push_back(x);
        if (window.size() > capacity)
            window.pop_front();
        if (i % 11 == 0)
            expectMatchesReference(inc, window, max_lag, "gaussian");
    }
}

TEST(IncrementalAutocorrTest, MatchesReferenceWithExactZeros)
{
    // Exact zeros take the skip path on push and on eviction; the
    // real values around them keep every lag sum non-trivial.
    const std::size_t max_lag = 12;
    const std::size_t capacity = 40;
    IncrementalAutocorrelation inc(max_lag, capacity);
    std::deque<double> window;
    Rng rng(36);
    for (int i = 0; i < 400; ++i) {
        const double u = rng.nextDouble();
        const double x = u < 0.4   ? 0.0
                         : u < 0.5 ? -0.0
                                   : rng.nextGaussian(0.0, 1.0);
        inc.push(x);
        window.push_back(x);
        if (window.size() > capacity)
            window.pop_front();
        if (i % 5 == 0)
            expectMatchesReference(inc, window, max_lag, "zeros");
    }
}

TEST(IncrementalAutocorrTest, MatchesReferenceFromGrowthIntoWrapAround)
{
    // Storage grows with use; check every push from the empty ring
    // through the first eviction and twice around the wrapped ring.
    const std::size_t max_lag = 16;
    const std::size_t capacity = 37;
    IncrementalAutocorrelation inc(max_lag, capacity);
    std::deque<double> window;
    Rng rng(37);
    for (std::size_t i = 0; i < 3 * capacity; ++i) {
        const double x = rng.nextDouble() < 0.5 ? 0.0 : 1.0;
        inc.push(x);
        window.push_back(x);
        if (window.size() > capacity)
            window.pop_front();
        expectMatchesReference(inc, window, max_lag, "growth-wrap");
        EXPECT_EQ(inc.size(), window.size());
        EXPECT_EQ(inc.evictions(), i + 1 - window.size());
    }
}

TEST(IncrementalAutocorrTest, RandomizedSchedulesAndLagSubranges)
{
    // Randomized capacities and query lags: every (capacity, lag)
    // combination must agree with the reference over the same window.
    Rng rng(34);
    for (int round = 0; round < 8; ++round) {
        const std::size_t max_lag = 2 + (rng.next() % 20);
        const std::size_t capacity =
            max_lag + 1 + (rng.next() % 50);
        IncrementalAutocorrelation inc(max_lag, capacity);
        std::deque<double> window;
        const int pushes = 30 + static_cast<int>(rng.next() % 200);
        for (int i = 0; i < pushes; ++i) {
            const double x = rng.nextDouble() < 0.5 ? 0.0 : 1.0;
            inc.push(x);
            window.push_back(x);
            if (window.size() > capacity)
                window.pop_front();
        }
        // Querying a smaller lag than maintained must also agree.
        const std::size_t query = 2 + (rng.next() % (max_lag - 1));
        const auto reference =
            autocorrelogramNaive(windowOf(window), query);
        const auto actual = inc.correlogram(query);
        ASSERT_EQ(actual.size(), reference.size());
        for (std::size_t lag = 0; lag < actual.size(); ++lag)
            EXPECT_NEAR(actual[lag], reference[lag], 1e-9)
                << "round=" << round << " lag=" << lag;
    }
}

TEST(IncrementalAutocorrTest, CorrelogramQueryLeavesStateIntact)
{
    IncrementalAutocorrelation inc(8, 32);
    Rng rng(35);
    for (int i = 0; i < 40; ++i)
        inc.push(rng.nextDouble() < 0.5 ? 0.0 : 1.0);
    const auto first = inc.correlogram(8);
    const auto second = inc.correlogram(8);
    EXPECT_EQ(first, second);
    // Reusing a caller buffer must fully overwrite stale contents.
    std::vector<double> out(3, 99.0);
    inc.correlogram(8, out);
    EXPECT_EQ(out, first);
}

} // namespace
} // namespace cchunter
