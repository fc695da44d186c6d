/**
 * @file
 * Property-based tests for the detect/ primitives on degenerate and
 * randomized inputs.  All randomness is seeded, so every run checks
 * the exact same cases.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "detect/autocorrelation.hh"
#include "detect/discretizer.hh"
#include "util/histogram.hh"
#include "util/rng.hh"

using namespace cchunter;

TEST(AutocorrDegenerateTest, EmptySeriesYieldsAllZero)
{
    const std::vector<double> empty;
    const std::vector<double> corr = autocorrelogram(empty, 16);
    ASSERT_EQ(corr.size(), 17u);
    for (const double r : corr)
        EXPECT_EQ(r, 0.0);
    EXPECT_EQ(autocorrelationAt(empty, 0), 0.0);
    EXPECT_EQ(autocorrelationAt(empty, 3), 0.0);
}

TEST(AutocorrDegenerateTest, ConstantSeriesHasZeroVarianceEverywhere)
{
    for (const double level : {0.0, 1.0, -7.5}) {
        const std::vector<double> series(100, level);
        const std::vector<double> corr = autocorrelogram(series, 20);
        for (std::size_t lag = 0; lag < corr.size(); ++lag)
            EXPECT_EQ(corr[lag], 0.0)
                << "level " << level << " lag " << lag;
    }
}

TEST(AutocorrDegenerateTest, SingleSpikeNeverOscillates)
{
    // One spike in a flat series: r_0 is 1 and every positive lag is
    // slightly negative (the spike never re-aligns with itself), so
    // no peak detector may fire on it.
    std::vector<double> series(128, 0.0);
    series[40] = 1.0;
    const std::vector<double> corr = autocorrelogram(series, 32);
    EXPECT_DOUBLE_EQ(corr[0], 1.0);
    for (std::size_t lag = 1; lag < corr.size(); ++lag)
        EXPECT_LT(corr[lag], 0.05) << "lag " << lag;
    EXPECT_TRUE(findPeaks(corr, 0.35).empty());
}

TEST(AutocorrDegenerateTest, SingleElementSeriesIsDegenerate)
{
    const std::vector<double> one{42.0};
    const std::vector<double> corr = autocorrelogram(one, 8);
    for (const double r : corr)
        EXPECT_EQ(r, 0.0);
}

TEST(FindPeaksPropertyTest, MonotoneRampsHaveNoInteriorPeaks)
{
    // A strictly increasing correlogram has its maximum at the last
    // lag; findPeaks only reports local maxima with a higher left
    // neighbour and a non-lower right one, so ramps must yield
    // nothing except possibly the final plateau-free endpoint.
    std::vector<double> rising, falling;
    for (int i = 0; i <= 64; ++i) {
        rising.push_back(static_cast<double>(i) / 64.0);
        falling.push_back(1.0 - static_cast<double>(i) / 64.0);
    }
    for (const AutocorrPeak& p : findPeaks(rising, 0.0, 1))
        EXPECT_EQ(p.lag, rising.size() - 1);
    // A falling ramp's only candidate is lag 1 (lag 0 is excluded);
    // nothing beyond it may ever be reported.
    for (const AutocorrPeak& p : findPeaks(falling, 0.0, 1))
        EXPECT_LE(p.lag, 1u);
}

TEST(FindPeaksPropertyTest, SeededRandomSeriesPeaksAreLocalMaxima)
{
    Rng rng(2026);
    for (int round = 0; round < 20; ++round) {
        std::vector<double> corr;
        corr.push_back(1.0);
        for (int i = 0; i < 100; ++i)
            corr.push_back(rng.nextDouble() * 2.0 - 1.0);
        const double floor = rng.nextDouble() * 0.5;
        for (const AutocorrPeak& p : findPeaks(corr, floor, 1)) {
            ASSERT_GT(p.lag, 0u);
            EXPECT_GE(p.value, floor);
            EXPECT_DOUBLE_EQ(p.value, corr[p.lag]);
            EXPECT_GT(p.value, corr[p.lag - 1]);
            if (p.lag + 1 < corr.size()) {
                EXPECT_GE(p.value, corr[p.lag + 1]);
            }
        }
    }
}

TEST(DiscretizerPropertyTest, RoundTripOnRandomHistograms)
{
    // toString and toFeatures are two renderings of the same
    // discretization: every character must decode back to the level
    // of its bin, and levels must be monotone in the counts.
    HistogramDiscretizer disc;
    Rng rng(77);
    for (int round = 0; round < 25; ++round) {
        Histogram hist(64);
        const std::uint64_t samples = 1 + rng.nextBelow(5000);
        for (std::uint64_t s = 0; s < samples; ++s)
            hist.addSample(rng.nextBelow(64));
        const std::string symbols = disc.toString(hist);
        const std::vector<double> features = disc.toFeatures(hist);
        ASSERT_EQ(symbols.size(), hist.numBins());
        ASSERT_EQ(features.size(), hist.numBins());
        for (std::size_t b = 0; b < hist.numBins(); ++b) {
            const unsigned level = disc.levelOf(hist.bin(b));
            EXPECT_EQ(symbols[b],
                      static_cast<char>('0' + level));
            EXPECT_EQ(features[b], static_cast<double>(level));
            // The log-scale level round-trips the count's magnitude:
            // 2^level - 1 <= count < 2^(level+1) - 1 below saturation.
            if (level + 1 < disc.params().alphabetSize) {
                EXPECT_GE(hist.bin(b) + 1, 1ull << level);
                EXPECT_LT(hist.bin(b) + 1, 1ull << (level + 1));
            }
        }
    }
}

TEST(DiscretizerPropertyTest, LevelsMonotoneInCount)
{
    HistogramDiscretizer disc;
    unsigned previous = 0;
    for (std::uint64_t count = 0; count < 4096; ++count) {
        const unsigned level = disc.levelOf(count);
        EXPECT_GE(level, previous);
        EXPECT_LT(level, disc.params().alphabetSize);
        previous = level;
    }
}
