/**
 * @file
 * SIMD shim equivalence tests.
 *
 * Every kernel in util/simd.hh promises bit-identical output between
 * the vector backend and the scalar fallback (the golden incident
 * streams depend on it).  These tests run each kernel under both
 * settings of the runtime toggle across sizes that cover empty, tiny,
 * unaligned-tail and large inputs, and compare results with exact
 * equality.  On hosts without the vector extension both runs take the
 * scalar path and the tests pass trivially — the contract is "the
 * toggle never changes bits", which is exactly what is asserted.
 */

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "util/fft.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace cchunter
{
namespace
{

/** Restores the global toggle no matter how the test exits. */
class SimdToggleGuard
{
  public:
    SimdToggleGuard() : saved_(simdEnabled()) {}
    ~SimdToggleGuard() { setSimdEnabled(saved_); }

  private:
    bool saved_;
};

const std::vector<std::size_t> kSizes = {0,  1,  2,  3,   4,   5,
                                         7,  8,  9,  15,  16,  17,
                                         31, 64, 100, 255, 1024};

std::vector<double>
randomDoubles(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(rng.nextGaussian(0.0, 1.0));
    return v;
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

TEST(SimdBackendTest, ToggleControlsTheBackendName)
{
    SimdToggleGuard guard;
    setSimdEnabled(false);
    EXPECT_FALSE(simdEnabled());
    EXPECT_STREQ(simdBackendName(), "scalar");
    setSimdEnabled(true);
    EXPECT_TRUE(simdEnabled());
    const std::string name = simdBackendName();
    EXPECT_TRUE(name == "avx2" || name == "scalar") << name;
}

TEST(SimdKernelTest, SquaredDistanceBitIdenticalAcrossBackends)
{
    SimdToggleGuard guard;
    for (const std::size_t n : kSizes) {
        const auto a = randomDoubles(100 + n, n);
        const auto b = randomDoubles(200 + n, n);
        setSimdEnabled(true);
        const double vec = simd::squaredDistance(a.data(), b.data(), n);
        setSimdEnabled(false);
        const double scalar =
            simd::squaredDistance(a.data(), b.data(), n);
        EXPECT_EQ(vec, scalar) << "n=" << n;
    }
}

TEST(SimdKernelTest, SquaredDistanceMatchesDefinitionClosely)
{
    // The fixed 4-lane tree may differ from a sequential sum in the
    // last bits, but it must still compute the same mathematical value.
    const auto a = randomDoubles(7, 100);
    const auto b = randomDoubles(8, 100);
    double reference = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        reference += (a[i] - b[i]) * (a[i] - b[i]);
    EXPECT_NEAR(simd::squaredDistance(a.data(), b.data(), a.size()),
                reference, 1e-12 * reference);
}

TEST(SimdKernelTest, DivideInPlaceBitIdenticalAcrossBackends)
{
    SimdToggleGuard guard;
    for (const std::size_t n : kSizes) {
        const auto base = randomDoubles(300 + n, n);
        const double denom = 3.7;
        auto vec = base;
        setSimdEnabled(true);
        simd::divideInPlace(vec.data(), n, denom);
        auto scalar = base;
        setSimdEnabled(false);
        simd::divideInPlace(scalar.data(), n, denom);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(vec[i], scalar[i]) << "n=" << n << " i=" << i;
            EXPECT_EQ(vec[i], base[i] / denom) << "n=" << n;
        }
    }
}

TEST(SimdKernelTest, ScaleInPlaceBitIdenticalAcrossBackends)
{
    SimdToggleGuard guard;
    for (const std::size_t n : kSizes) {
        const auto base = randomDoubles(400 + n, n);
        const double s = 1.0 / 48.0;
        auto vec = base;
        setSimdEnabled(true);
        simd::scaleInPlace(vec.data(), n, s);
        auto scalar = base;
        setSimdEnabled(false);
        simd::scaleInPlace(scalar.data(), n, s);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(vec[i], scalar[i]) << "n=" << n << " i=" << i;
            EXPECT_EQ(vec[i], base[i] * s) << "n=" << n;
        }
    }
}

TEST(SimdKernelTest, SubtractScalarBitIdenticalAcrossBackends)
{
    SimdToggleGuard guard;
    for (const std::size_t n : kSizes) {
        const auto x = randomDoubles(500 + n, n);
        const double c = 0.4375;
        std::vector<double> vec(n, -1.0);
        std::vector<double> scalar(n, -2.0);
        setSimdEnabled(true);
        simd::subtractScalar(x.data(), n, c, vec.data());
        setSimdEnabled(false);
        simd::subtractScalar(x.data(), n, c, scalar.data());
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(vec[i], scalar[i]) << "n=" << n << " i=" << i;
            EXPECT_EQ(vec[i], x[i] - c) << "n=" << n;
        }
    }
}

TEST(SimdKernelTest, PowerSpectrumExpandBitIdenticalAcrossBackends)
{
    SimdToggleGuard guard;
    for (const std::size_t padded : {2u, 4u, 8u, 64u, 256u, 1024u}) {
        const std::size_t m1 = padded / 2 + 1;
        const auto spectrum = randomComplex(600 + padded, m1);
        std::vector<double> vec(padded, -1.0);
        std::vector<double> scalar(padded, -2.0);
        setSimdEnabled(true);
        simd::powerSpectrumExpand(spectrum.data(), m1, vec.data(),
                                  padded);
        setSimdEnabled(false);
        simd::powerSpectrumExpand(spectrum.data(), m1, scalar.data(),
                                  padded);
        for (std::size_t k = 0; k < padded; ++k)
            EXPECT_EQ(vec[k], scalar[k])
                << "padded=" << padded << " k=" << k;
        // Definition: |X_k|^2 over the half spectrum, mirrored.
        for (std::size_t k = 0; k < m1; ++k)
            EXPECT_EQ(vec[k], std::norm(spectrum[k])) << "k=" << k;
        for (std::size_t k = 1; k < m1; ++k) {
            if (k != padded - k) {
                EXPECT_EQ(vec[padded - k], vec[k]) << "k=" << k;
            }
        }
    }
}

TEST(SimdKernelTest, ButterflyStageBitIdenticalAcrossBackends)
{
    SimdToggleGuard guard;
    for (const std::size_t n : {2u, 4u, 8u, 64u, 256u}) {
        const FftPlan plan(n);
        for (std::size_t len = 2; len <= n; len <<= 1) {
            const std::size_t half = len / 2;
            const auto base = randomComplex(700 + n + len, n);
            for (const bool inverse : {false, true}) {
                auto vec = base;
                setSimdEnabled(true);
                simd::butterflyStage(vec.data(), n,
                                     plan.stageTwiddles(len), half,
                                     inverse);
                auto scalar = base;
                setSimdEnabled(false);
                simd::butterflyStage(scalar.data(), n,
                                     plan.stageTwiddles(len), half,
                                     inverse);
                ASSERT_EQ(std::memcmp(vec.data(), scalar.data(),
                                      n * sizeof(vec[0])),
                          0)
                    << "n=" << n << " len=" << len
                    << " inverse=" << inverse;
            }
        }
    }
}

TEST(SimdFftTest, WholeTransformBitIdenticalAcrossBackends)
{
    SimdToggleGuard guard;
    const auto base = randomComplex(42, 512);
    auto vec = base;
    setSimdEnabled(true);
    fftInPlace(vec);
    auto scalar = base;
    setSimdEnabled(false);
    fftInPlace(scalar);
    ASSERT_EQ(std::memcmp(vec.data(), scalar.data(),
                          vec.size() * sizeof(vec[0])),
              0);
}

TEST(SimdFftTest, AutocorrelationSumsBitIdenticalAcrossBackends)
{
    SimdToggleGuard guard;
    const auto x = randomDoubles(43, 700);
    setSimdEnabled(true);
    const auto vec = autocorrelationSumsFft(x, 128);
    setSimdEnabled(false);
    const auto scalar = autocorrelationSumsFft(x, 128);
    ASSERT_EQ(vec.size(), scalar.size());
    for (std::size_t lag = 0; lag < vec.size(); ++lag)
        EXPECT_EQ(vec[lag], scalar[lag]) << "lag=" << lag;
}

} // namespace
} // namespace cchunter
