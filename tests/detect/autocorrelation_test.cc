#include <gtest/gtest.h>

#include <cmath>

#include "detect/autocorrelation.hh"
#include "util/rng.hh"

namespace cchunter
{
namespace
{

/** Square wave with `period` (half ones, half zeros), `cycles` repeats. */
std::vector<double>
squareWave(std::size_t period, std::size_t cycles)
{
    std::vector<double> s;
    s.reserve(period * cycles);
    for (std::size_t c = 0; c < cycles; ++c) {
        for (std::size_t i = 0; i < period; ++i)
            s.push_back(i < period / 2 ? 1.0 : 0.0);
    }
    return s;
}

TEST(AutocorrelationTest, LagZeroIsOne)
{
    std::vector<double> s{1, 2, 3, 4, 5, 4, 3, 2};
    EXPECT_NEAR(autocorrelationAt(s, 0), 1.0, 1e-12);
}

TEST(AutocorrelationTest, ConstantSeriesIsZero)
{
    std::vector<double> s(100, 5.0);
    EXPECT_DOUBLE_EQ(autocorrelationAt(s, 1), 0.0);
    EXPECT_DOUBLE_EQ(autocorrelationAt(s, 5), 0.0);
}

TEST(AutocorrelationTest, LagBeyondLengthIsZero)
{
    std::vector<double> s{1, 2, 3};
    EXPECT_DOUBLE_EQ(autocorrelationAt(s, 3), 0.0);
    EXPECT_DOUBLE_EQ(autocorrelationAt(s, 100), 0.0);
}

TEST(AutocorrelationTest, SquareWavePeaksAtPeriod)
{
    auto s = squareWave(64, 16);
    const double at_period = autocorrelationAt(s, 64);
    const double at_half = autocorrelationAt(s, 32);
    EXPECT_GT(at_period, 0.85);
    EXPECT_LT(at_half, -0.75);
}

TEST(AutocorrelationTest, WhiteNoiseIsUncorrelated)
{
    Rng rng(1);
    std::vector<double> s;
    for (int i = 0; i < 5000; ++i)
        s.push_back(rng.nextDouble());
    for (std::size_t lag : {1u, 7u, 50u})
        EXPECT_LT(std::abs(autocorrelationAt(s, lag)), 0.05);
}

TEST(AutocorrelationTest, AlternatingSeriesNegativeAtOddLags)
{
    std::vector<double> s;
    for (int i = 0; i < 200; ++i)
        s.push_back(i % 2 ? 1.0 : 0.0);
    EXPECT_LT(autocorrelationAt(s, 1), -0.9);
    EXPECT_GT(autocorrelationAt(s, 2), 0.9);
}

TEST(AutocorrelogramTest, MatchesPointwiseComputation)
{
    Rng rng(2);
    std::vector<double> s;
    for (int i = 0; i < 300; ++i)
        s.push_back(rng.nextGaussian(0.0, 1.0) +
                    std::sin(i * 2.0 * M_PI / 25.0));
    auto gram = autocorrelogram(s, 60);
    ASSERT_EQ(gram.size(), 61u);
    for (std::size_t lag = 0; lag <= 60; ++lag)
        EXPECT_NEAR(gram[lag], autocorrelationAt(s, lag), 1e-12);
}

TEST(AutocorrelogramTest, DegenerateSeriesAllZero)
{
    auto gram = autocorrelogram({1.0}, 10);
    ASSERT_EQ(gram.size(), 11u);
    for (double v : gram)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(FindPeaksTest, FindsSquareWavePeaks)
{
    auto s = squareWave(50, 30);
    auto gram = autocorrelogram(s, 300);
    auto peaks = findPeaks(gram, 0.5, 8);
    // Peaks at 50, 100, 150, 200, 250, 300 (some boundary effects).
    ASSERT_GE(peaks.size(), 4u);
    EXPECT_NEAR(static_cast<double>(peaks[0].lag), 50.0, 2.0);
    EXPECT_NEAR(static_cast<double>(peaks[1].lag), 100.0, 2.0);
}

TEST(FindPeaksTest, RespectsMinValue)
{
    auto s = squareWave(50, 30);
    auto gram = autocorrelogram(s, 300);
    auto none = findPeaks(gram, 1.1, 8);
    EXPECT_TRUE(none.empty());
}

TEST(FindPeaksTest, MinSeparationMergesNearbyPeaks)
{
    // Construct a correlogram with two local maxima 3 lags apart.
    std::vector<double> gram{0.0, 0.2, 0.8, 0.3, 0.9, 0.1, 0.0};
    auto peaks = findPeaks(gram, 0.5, 8);
    ASSERT_EQ(peaks.size(), 1u);
    EXPECT_EQ(peaks[0].lag, 4u);
    EXPECT_DOUBLE_EQ(peaks[0].value, 0.9);
}

TEST(FindPeaksTest, EmptyCorrelogram)
{
    EXPECT_TRUE(findPeaks({}, 0.1).empty());
}

TEST(FindPeaksTest, AllZeroCorrelogramHasNoPeaks)
{
    // A degenerate (constant) series yields an all-zero correlogram;
    // even a floor of 0.0 must not manufacture peaks from the flat line.
    std::vector<double> gram(200, 0.0);
    EXPECT_TRUE(findPeaks(gram, 0.0).empty());
    EXPECT_TRUE(findPeaks(gram, 0.5).empty());
}

TEST(FindPeaksTest, InteriorPlateauReportsFirstSampleOnly)
{
    std::vector<double> gram{0.0, 0.2, 0.9, 0.9, 0.9, 0.2, 0.0};
    auto peaks = findPeaks(gram, 0.5, 1);
    ASSERT_EQ(peaks.size(), 1u);
    EXPECT_EQ(peaks[0].lag, 2u);
    EXPECT_DOUBLE_EQ(peaks[0].value, 0.9);
}

TEST(FindPeaksTest, PlateauTouchingUpperBoundaryCounts)
{
    // The flat top runs into the last sample; its first sample is
    // still an interior local maximum and must be reported.
    std::vector<double> gram{0.0, 0.1, 0.8, 0.8};
    auto peaks = findPeaks(gram, 0.5, 1);
    ASSERT_EQ(peaks.size(), 1u);
    EXPECT_EQ(peaks[0].lag, 2u);
}

TEST(FindPeaksTest, PlateauStartingAtLagZeroExcluded)
{
    // Lag 0 is excluded by definition, and lag 1 continues a plateau
    // that started there, so no peak may be reported.
    std::vector<double> gram{0.9, 0.9, 0.1, 0.0};
    EXPECT_TRUE(findPeaks(gram, 0.5, 1).empty());
}

TEST(FindPeaksTest, PeakAtLastInteriorLag)
{
    std::vector<double> gram{0.0, 0.1, 0.2, 0.9, 0.3};
    auto peaks = findPeaks(gram, 0.5, 1);
    ASSERT_EQ(peaks.size(), 1u);
    EXPECT_EQ(peaks[0].lag, 3u);
}

TEST(FindPeaksTest, MinSeparationTieKeepsEarlierPeak)
{
    // Two equal-valued maxima 3 lags apart with min_separation 8: the
    // replacement rule is strictly-greater, so the earlier lag wins.
    std::vector<double> gram{0.0, 0.2, 0.9, 0.3, 0.9, 0.1, 0.0};
    auto peaks = findPeaks(gram, 0.5, 8);
    ASSERT_EQ(peaks.size(), 1u);
    EXPECT_EQ(peaks[0].lag, 2u);
    EXPECT_DOUBLE_EQ(peaks[0].value, 0.9);
}

TEST(FindPeaksTest, ExactlyMinSeparationApartKeepsBoth)
{
    // Peaks at lags 2 and 10 with min_separation 8: the gap equals the
    // minimum, which the rule (gap < min) allows.
    std::vector<double> gram{0.0, 0.1, 0.9, 0.1, 0.0, 0.0,
                             0.0, 0.0, 0.1, 0.2, 0.8, 0.1, 0.0};
    auto peaks = findPeaks(gram, 0.5, 8);
    ASSERT_EQ(peaks.size(), 2u);
    EXPECT_EQ(peaks[0].lag, 2u);
    EXPECT_EQ(peaks[1].lag, 10u);
}

TEST(FindPeaksTest, ChainOfClosePeaksKeepsRunningMaximum)
{
    // Successive near peaks within min_separation collapse onto the
    // strongest seen so far.
    std::vector<double> gram{0.0, 0.6, 0.1, 0.7, 0.1, 0.95,
                             0.1, 0.65, 0.0};
    auto peaks = findPeaks(gram, 0.5, 8);
    ASSERT_EQ(peaks.size(), 1u);
    EXPECT_EQ(peaks[0].lag, 5u);
    EXPECT_DOUBLE_EQ(peaks[0].value, 0.95);
}

TEST(AutocorrelogramFftTest, ScratchReuseAcrossSizesBitIdentical)
{
    // One scratch arena across differently-sized series (a worker
    // thread's thread-local arena sees this pattern): every result
    // must match the fresh call.
    Rng rng(62);
    FftScratch scratch;
    std::vector<double> out;
    for (const std::size_t n : {4096u, 300u, 2048u, 700u}) {
        std::vector<double> s;
        s.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            s.push_back(rng.nextGaussian(0.0, 1.0));
        autocorrelogramFft(s, 64, scratch, out);
        const auto fresh = autocorrelogramFft(s, 64);
        ASSERT_EQ(out.size(), fresh.size()) << "n=" << n;
        for (std::size_t lag = 0; lag < fresh.size(); ++lag)
            EXPECT_EQ(out[lag], fresh[lag])
                << "n=" << n << " lag=" << lag;
    }
}

/** Period sweep mirroring the paper's cache-set sensitivity study. */
class PeriodSweepTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PeriodSweepTest, PeakLagTracksPeriod)
{
    const std::size_t period = GetParam();
    auto s = squareWave(period, 4096 / period + 4);
    auto gram = autocorrelogram(s, 1000);
    auto peaks = findPeaks(gram, 0.5, period / 4);
    ASSERT_FALSE(peaks.empty()) << "period=" << period;
    EXPECT_NEAR(static_cast<double>(peaks[0].lag),
                static_cast<double>(period), 2.0);
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodSweepTest,
                         ::testing::Values(64, 128, 256, 512));

} // namespace
} // namespace cchunter
