/**
 * @file
 * Byte-identity fuzz of the oscillation-analysis kernels against
 * their single-accumulator references (tests/reference/).
 *
 * The direct correlogram's four-lag blocks, the FFT's per-stage
 * butterflies, plan-held bit reversal and modulo-free untangle, and
 * the decision pass's live-lag scan all promise the exact bytes the
 * reference kernels produce.  Every comparison here is a memcmp, over
 * seeded series that cover the block and transform edges (lengths
 * 1-5, 255-257, maxLag±1, thousands), lags 1, n-1, n and 1000,
 * constant, 0/1, three-level and real-valued series, both settings
 * of the SIMD toggle, and non-positive peak thresholds, which let
 * the zero tail past the series reach the peak finder.  Transforms
 * of ±0/±1 inputs check that the untangle rounds signed zeros as the
 * std::complex operators do.
 */

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "detect/autocorrelation.hh"
#include "detect/oscillation_detector.hh"
#include "reference/autocorrelation_kernels.hh"
#include "util/fft.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace cchunter
{
namespace
{

/** Restores the global SIMD toggle no matter how the test exits. */
class SimdToggleGuard
{
  public:
    SimdToggleGuard() : saved_(simdEnabled()) {}
    ~SimdToggleGuard() { setSimdEnabled(saved_); }

  private:
    bool saved_;
};

enum class SeriesKind
{
    Constant,
    Binary,
    ThreeLevel,
    Real,
};

const SeriesKind kKinds[] = {SeriesKind::Constant, SeriesKind::Binary,
                             SeriesKind::ThreeLevel, SeriesKind::Real};

const char*
kindName(SeriesKind kind)
{
    switch (kind) {
    case SeriesKind::Constant:
        return "constant";
    case SeriesKind::Binary:
        return "binary";
    case SeriesKind::ThreeLevel:
        return "three-level";
    case SeriesKind::Real:
        return "real";
    }
    return "?";
}

/**
 * A seeded series of the given kind.  Label-like kinds follow a
 * square wave of a random period with 5% flips, so their
 * correlograms carry real peaks and troughs for the decision pass.
 */
std::vector<double>
makeSeries(SeriesKind kind, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    const std::size_t period = 4 + rng.nextBelow(200);
    std::vector<double> s;
    s.reserve(n);
    const double constant = rng.nextGaussian(0.0, 3.0);
    for (std::size_t i = 0; i < n; ++i) {
        const bool high = (i / (period / 2)) % 2 != 0;
        const bool flip = rng.nextBool(0.05);
        switch (kind) {
        case SeriesKind::Constant:
            s.push_back(constant);
            break;
        case SeriesKind::Binary:
            s.push_back(high != flip ? 1.0 : 0.0);
            break;
        case SeriesKind::ThreeLevel:
            s.push_back(flip ? 2.0 : (high ? 1.0 : 0.0));
            break;
        case SeriesKind::Real:
            s.push_back((high ? 1.5 : -0.5) +
                        rng.nextGaussian(0.0, 0.7));
            break;
        }
    }
    return s;
}

const std::vector<std::size_t> kLengths = {
    1, 2, 3, 4, 5, 255, 256, 257, 999, 1000, 1001, 2500, 4096};

/** Lags 1, n-1, n and 1000 (deduplicated). */
std::vector<std::size_t>
lagsFor(std::size_t n)
{
    std::set<std::size_t> lags = {1, n, 1000};
    if (n >= 1)
        lags.insert(n - 1);
    return {lags.begin(), lags.end()};
}

bool
sameBytes(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
               0;
}

bool
sameBytes(const std::vector<std::complex<double>>& a,
          const std::vector<std::complex<double>>& b)
{
    return a.size() == b.size() &&
           std::memcmp(static_cast<const void*>(a.data()),
                       static_cast<const void*>(b.data()),
                       a.size() * sizeof(a[0])) == 0;
}

bool
sameDouble(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string
where(SeriesKind kind, std::size_t n, std::size_t lag, bool simd,
      std::uint64_t seed)
{
    return std::string(kindName(kind)) + " n=" + std::to_string(n) +
           " lag=" + std::to_string(lag) +
           " simd=" + std::to_string(simd) +
           " seed=" + std::to_string(seed);
}

/** Runs `check(kind, n, lag, simd, seed, series)` over the grid. */
template <typename Check>
void
forEachCase(Check check)
{
    SimdToggleGuard guard;
    std::uint64_t seed = 9000;
    for (const SeriesKind kind : kKinds)
        for (const std::size_t n : kLengths) {
            ++seed;
            const auto series = makeSeries(kind, n, seed);
            for (const std::size_t lag : lagsFor(n))
                for (const bool simd : {true, false}) {
                    setSimdEnabled(simd);
                    check(kind, n, lag, simd, seed, series);
                }
        }
}

TEST(AutocorrReferenceFuzzTest, DirectCorrelogramByteIdentical)
{
    forEachCase([](SeriesKind kind, std::size_t n, std::size_t lag,
                   bool simd, std::uint64_t seed,
                   const std::vector<double>& series) {
        ASSERT_TRUE(sameBytes(autocorrelogramNaive(series, lag),
                              reference::autocorrelogramNaive(series,
                                                              lag)))
            << where(kind, n, lag, simd, seed);
    });
}

TEST(AutocorrReferenceFuzzTest, FftCorrelogramByteIdentical)
{
    FftScratch scratch;
    std::vector<double> scratchOut;
    forEachCase([&](SeriesKind kind, std::size_t n, std::size_t lag,
                    bool simd, std::uint64_t seed,
                    const std::vector<double>& series) {
        const auto expected = reference::autocorrelogramFft(series, lag);
        ASSERT_TRUE(sameBytes(autocorrelogramFft(series, lag), expected))
            << where(kind, n, lag, simd, seed);
        autocorrelogramFft(series, lag, scratch, scratchOut);
        ASSERT_TRUE(sameBytes(scratchOut, expected))
            << "scratch overload, " << where(kind, n, lag, simd, seed);
    });
}

TEST(AutocorrReferenceFuzzTest, DispatchByteIdentical)
{
    forEachCase([](SeriesKind kind, std::size_t n, std::size_t lag,
                   bool simd, std::uint64_t seed,
                   const std::vector<double>& series) {
        ASSERT_TRUE(sameBytes(autocorrelogram(series, lag),
                              reference::autocorrelogram(series, lag)))
            << where(kind, n, lag, simd, seed);
    });
}

TEST(AutocorrReferenceFuzzTest, ProducersLeaveLagsPastTheSeriesAtZero)
{
    forEachCase([](SeriesKind kind, std::size_t n, std::size_t lag,
                   bool simd, std::uint64_t seed,
                   const std::vector<double>& series) {
        for (const auto& gram : {autocorrelogramNaive(series, lag),
                                 autocorrelogramFft(series, lag)}) {
            ASSERT_EQ(gram.size(), lag + 1);
            for (std::size_t k = n; k < gram.size(); ++k)
                ASSERT_TRUE(sameDouble(gram[k], 0.0))
                    << "k=" << k << " " << where(kind, n, lag, simd, seed);
        }
    });
}

std::vector<std::complex<double>>
randomComplex(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<std::complex<double>> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.emplace_back(rng.nextGaussian(0.0, 1.0),
                       rng.nextGaussian(0.0, 1.0));
    return v;
}

TEST(AutocorrReferenceFuzzTest, FftComplexTransformByteIdentical)
{
    SimdToggleGuard guard;
    for (std::size_t n = 1; n <= 4096; n <<= 1) {
        const FftPlan plan(n);
        const auto base = randomComplex(9100 + n, n);
        for (const bool inverse : {false, true}) {
            auto expected = base;
            reference::fftInPlace(expected.data(), n, plan, inverse);
            for (const bool simd : {true, false}) {
                setSimdEnabled(simd);
                auto actual = base;
                fftInPlace(actual.data(), n, plan, inverse);
                ASSERT_TRUE(sameBytes(actual, expected))
                    << "n=" << n << " inverse=" << inverse
                    << " simd=" << simd;
            }
        }
    }
}

TEST(AutocorrReferenceFuzzTest, FftRealTransformByteIdentical)
{
    SimdToggleGuard guard;
    std::vector<std::complex<double>> packed;
    std::vector<std::complex<double>> expected;
    std::vector<std::complex<double>> actual;
    for (std::size_t n = 2; n <= 8192; n <<= 1) {
        const FftPlan plan(n / 2);
        for (const SeriesKind kind : kKinds) {
            const auto x = makeSeries(kind, n, 9200 + n);
            reference::realFft(x.data(), n, plan, packed, expected);
            for (const bool simd : {true, false}) {
                setSimdEnabled(simd);
                realFft(x.data(), n, plan, packed, actual);
                ASSERT_TRUE(sameBytes(actual, expected))
                    << kindName(kind) << " n=" << n << " simd=" << simd;
            }
        }
    }
}

TEST(AutocorrReferenceFuzzTest, FftAutocorrelationSumsByteIdentical)
{
    FftScratch refScratch;
    FftScratch scratch;
    std::vector<double> expected;
    std::vector<double> actual;
    forEachCase([&](SeriesKind kind, std::size_t n, std::size_t lag,
                    bool simd, std::uint64_t seed,
                    const std::vector<double>& series) {
        reference::autocorrelationSumsFft(series.data(), n, lag,
                                          refScratch, expected);
        autocorrelationSumsFft(series.data(), n, lag, scratch, actual);
        ASSERT_TRUE(sameBytes(actual, expected))
            << where(kind, n, lag, simd, seed);
    });
}

TEST(AutocorrReferenceFuzzTest, FftSignedZerosRoundAsTheComplexOperators)
{
    // Inputs drawn from {+0, -0, +1, -1} cancel exactly all through
    // the transform, so zeros of both signs reach the untangle, where
    // only the products std::complex forms (zero parts of the
    // constants included) give the reference's signs.
    SimdToggleGuard guard;
    const double values[] = {0.0, -0.0, 1.0, -1.0};
    std::vector<std::complex<double>> packed;
    std::vector<std::complex<double>> expected;
    std::vector<std::complex<double>> actual;
    for (std::size_t n = 2; n <= 4096; n <<= 1) {
        const FftPlan plan(n / 2);
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
            Rng rng(9300 + 16 * n + seed);
            std::vector<double> x;
            for (std::size_t i = 0; i < n; ++i)
                x.push_back(values[rng.nextBelow(seed < 4 ? 2 : 4)]);
            reference::realFft(x.data(), n, plan, packed, expected);
            for (const bool simd : {true, false}) {
                setSimdEnabled(simd);
                realFft(x.data(), n, plan, packed, actual);
                ASSERT_TRUE(sameBytes(actual, expected))
                    << "n=" << n << " seed=" << seed << " simd=" << simd;
            }
        }
    }
}

void
expectSameDecision(const OscillationAnalysis& a,
                   const OscillationAnalysis& b, const std::string& at)
{
    ASSERT_EQ(a.peaks.size(), b.peaks.size()) << at;
    for (std::size_t i = 0; i < a.peaks.size(); ++i) {
        EXPECT_EQ(a.peaks[i].lag, b.peaks[i].lag) << at;
        EXPECT_TRUE(sameDouble(a.peaks[i].value, b.peaks[i].value)) << at;
    }
    EXPECT_TRUE(sameDouble(a.r1, b.r1)) << at;
    EXPECT_EQ(a.dominantLag, b.dominantLag) << at;
    EXPECT_TRUE(sameDouble(a.dominantValue, b.dominantValue)) << at;
    EXPECT_TRUE(sameDouble(a.deepestTrough, b.deepestTrough)) << at;
    EXPECT_TRUE(sameDouble(a.periodScore, b.periodScore)) << at;
    EXPECT_TRUE(sameDouble(a.spanFraction, b.spanFraction)) << at;
    EXPECT_EQ(a.oscillating, b.oscillating) << at;
}

TEST(AutocorrReferenceFuzzTest, OscillationDecisionByteIdentical)
{
    std::size_t decided = 0;
    forEachCase([&](SeriesKind kind, std::size_t n, std::size_t lag,
                    bool simd, std::uint64_t seed,
                    const std::vector<double>& series) {
        OscillationAnalysis analysis;
        analysis.seriesLength = n;
        analysis.correlogram = autocorrelogram(series, lag);
        for (const double threshold : {0.35, 0.0, -0.25, -1.5})
            for (const std::size_t minLength : {std::size_t{0},
                                                std::size_t{64}}) {
                OscillationParams params;
                params.maxLag = lag;
                params.peakThreshold = threshold;
                params.minSeriesLength = minLength;
                params.minPeakSeparation = 1 + seed % 9;
                OscillationAnalysis actual = analysis;
                OscillationAnalysis expected = analysis;
                decideOscillation(actual, params);
                reference::decideOscillation(expected, params);
                expectSameDecision(
                    actual, expected,
                    where(kind, n, lag, simd, seed) +
                        " threshold=" + std::to_string(threshold) +
                        " minLength=" + std::to_string(minLength));
                decided += expected.peaks.empty() ? 0 : 1;
            }
    });
    EXPECT_GT(decided, 0u) << "no case reached the peak logic";
}

TEST(AutocorrReferenceFuzzTest, OscillationZeroTailPeakAtTheFirstZeroLag)
{
    // A short series whose correlogram ends below zero: with a
    // non-positive threshold the first zero lag is a local maximum
    // after a negative coefficient, and every later zero is a plateau.
    const std::vector<double> series = {0.0, 1.0, 0.0, 1.0};
    OscillationAnalysis analysis;
    analysis.seriesLength = series.size();
    analysis.correlogram = autocorrelogram(series, 1000);
    ASSERT_LT(analysis.correlogram[series.size() - 1], 0.0);
    OscillationParams params;
    params.peakThreshold = -0.5;
    params.minSeriesLength = 0;
    params.minPeakSeparation = 1;
    OscillationAnalysis expected = analysis;
    reference::decideOscillation(expected, params);
    decideOscillation(analysis, params);
    expectSameDecision(analysis, expected, "alternating n=5");
    ASSERT_FALSE(analysis.peaks.empty());
    EXPECT_EQ(analysis.peaks.back().lag, series.size());
}

} // namespace
} // namespace cchunter
