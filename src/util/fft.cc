#include "util/fft.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>

#include "util/logging.hh"
#include "util/simd.hh"

namespace cchunter
{

std::size_t
nextPowerOfTwo(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

namespace
{

bool
isPowerOfTwo(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/**
 * One bin of the real-transform untangle,
 *
 *   even = (zk + conj(zmk)) * (0.5, 0)
 *   odd  = (zk - conj(zmk)) * (0, -0.5)
 *   bin  = even + w * odd,
 *
 * written out as the products std::complex forms for finite values,
 * (ar*br - ai*bi, ar*bi + ai*br), term for term: the zero parts of
 * the constant factors are multiplied, not dropped, so signed zeros
 * round exactly as the complex operators round them.
 */
inline std::complex<double>
untangleBin(std::complex<double> zk, std::complex<double> zmk,
            std::complex<double> w)
{
    const double cr = zmk.real();
    const double ci = -zmk.imag();
    const double sr = zk.real() + cr;
    const double si = zk.imag() + ci;
    const double evenR = sr * 0.5 - si * 0.0;
    const double evenI = sr * 0.0 + si * 0.5;
    const double dr = zk.real() - cr;
    const double di = zk.imag() - ci;
    const double oddR = dr * 0.0 - di * -0.5;
    const double oddI = dr * -0.5 + di * 0.0;
    const double prodR = w.real() * oddR - w.imag() * oddI;
    const double prodI = w.real() * oddI + w.imag() * oddR;
    return {evenR + prodR, evenI + prodI};
}

} // namespace

FftPlan::FftPlan(std::size_t n) : n_(n)
{
    if (!isPowerOfTwo(n))
        fatal("FftPlan: size must be a power of two");
    // Per-stage butterfly twiddles, built with the same incremental
    // recurrence (w *= wlen) the unplanned kernel used so planned
    // transforms are bit-identical to the historical output.  Stage
    // `len` owns len/2 values at offset len/2 - 1; the offsets sum to
    // n-1 across all stages.
    twiddles_.resize(n_ > 1 ? n_ - 1 : 0);
    for (std::size_t len = 2; len <= n_; len <<= 1) {
        const double angle = -2.0 * M_PI / static_cast<double>(len);
        const std::complex<double> wlen(std::cos(angle),
                                        std::sin(angle));
        std::complex<double> w(1.0, 0.0);
        std::complex<double>* dst = twiddles_.data() + (len / 2 - 1);
        for (std::size_t j = 0; j < len / 2; ++j) {
            dst[j] = w;
            w *= wlen;
        }
    }
    // Untangle factors for a real transform of length 2n, evaluated
    // exactly as the unplanned realFft evaluated them.
    untangle_.resize(n_ + 1);
    for (std::size_t k = 0; k <= n_; ++k) {
        const double angle = -2.0 * M_PI * static_cast<double>(k) /
                             static_cast<double>(2 * n_);
        untangle_[k] = std::complex<double>(std::cos(angle),
                                            std::sin(angle));
    }
    // Bit-reversal swaps (i, j), i < j, in increasing i.
    if (n_ > std::numeric_limits<std::uint32_t>::max())
        fatal("FftPlan: size exceeds the 32-bit swap table");
    for (std::size_t i = 1, j = 0; i < n_; ++i) {
        std::size_t bit = n_ >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            swaps_.push_back({static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j)});
    }
}

const FftPlan&
fftPlanFor(std::size_t n)
{
    // Per-thread cache: analysis threads never contend, and the plans
    // a thread builds live as long as the thread does.  unique_ptr
    // keeps references stable across map rehashing.
    thread_local std::map<std::size_t, std::unique_ptr<FftPlan>> cache;
    auto it = cache.find(n);
    if (it == cache.end())
        it = cache.emplace(n, std::make_unique<FftPlan>(n)).first;
    return *it->second;
}

void
fftInPlace(std::complex<double>* a, std::size_t n, const FftPlan& plan,
           bool inverse)
{
    if (!isPowerOfTwo(n))
        fatal("fftInPlace: size must be a power of two");
    if (plan.size() != n)
        fatal("fftInPlace: plan size mismatch");
    if (n == 1)
        return;

    for (const auto& [i, j] : plan.bitReversalSwaps())
        std::swap(a[i], a[j]);

    // Butterflies, doubling the transform length each stage, one
    // kernel call per stage.  The planned forward twiddles serve the
    // inverse too (conjugated inside the kernel).
    for (std::size_t len = 2; len <= n; len <<= 1)
        simd::butterflyStage(a, n, plan.stageTwiddles(len), len / 2,
                             inverse);

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        simd::scaleInPlace(reinterpret_cast<double*>(a), 2 * n,
                           scale);
    }
}

void
fftInPlace(std::vector<std::complex<double>>& a, bool inverse)
{
    if (!isPowerOfTwo(a.size()))
        fatal("fftInPlace: size must be a power of two");
    fftInPlace(a.data(), a.size(), fftPlanFor(a.size()), inverse);
}

void
realFft(const double* x, std::size_t n, const FftPlan& plan,
        std::vector<std::complex<double>>& packed,
        std::vector<std::complex<double>>& out)
{
    if (n < 2 || !isPowerOfTwo(n))
        fatal("realFft: size must be a power of two >= 2");
    const std::size_t m = n / 2;
    if (plan.size() != m)
        fatal("realFft: plan must cover the half size");

    // Pack even samples into the real lane, odd into the imaginary:
    // a complex value is two adjacent doubles, so this is a copy.
    packed.resize(m);
    std::memcpy(static_cast<void*>(packed.data()), x, n * sizeof(double));
    fftInPlace(packed.data(), m, plan);

    // Untangle the two interleaved half-length spectra:
    //   X[k] = E[k] + e^{-2πik/N} O[k],  k = 0..N/2
    // with E/O recovered from Z[k] and conj(Z[M-k]); Z is periodic
    // in M, so bins 0 and M both pair Z[0] with itself.
    out.resize(m + 1);
    const std::complex<double>* w = plan.untangleTwiddles();
    out[0] = untangleBin(packed[0], packed[0], w[0]);
    for (std::size_t k = 1; k < m; ++k)
        out[k] = untangleBin(packed[k], packed[m - k], w[k]);
    out[m] = untangleBin(packed[0], packed[0], w[m]);
}

std::vector<std::complex<double>>
realFft(const std::vector<double>& x)
{
    const std::size_t n = x.size();
    if (n < 2 || !isPowerOfTwo(n))
        fatal("realFft: size must be a power of two >= 2");
    std::vector<std::complex<double>> packed;
    std::vector<std::complex<double>> out;
    realFft(x.data(), n, fftPlanFor(n / 2), packed, out);
    return out;
}

std::size_t
autocorrPaddedSize(std::size_t n, std::size_t max_lag)
{
    if (n == 0)
        return 0;
    const std::size_t top = std::min(max_lag, n - 1);
    std::size_t padded = nextPowerOfTwo(n + top);
    if (padded < 2)
        padded = 2;
    return padded;
}

void
autocorrelationSumsFft(const double* x, std::size_t n,
                       std::size_t max_lag, FftScratch& scratch,
                       std::vector<double>& out)
{
    out.assign(max_lag + 1, 0.0);
    if (n == 0)
        return;
    // Lags >= n contribute nothing; only these need the transform.
    const std::size_t top = std::min(max_lag, n - 1);
    const std::size_t padded = autocorrPaddedSize(n, max_lag);
    const FftPlan& plan = fftPlanFor(padded / 2);

    scratch.real.resize(padded);
    std::copy(x, x + n, scratch.real.begin());
    std::fill(scratch.real.begin() + static_cast<std::ptrdiff_t>(n),
              scratch.real.end(), 0.0);

    realFft(scratch.real.data(), padded, plan, scratch.packed,
            scratch.spectrum);

    // Power spectrum, expanded to full length by conjugate symmetry,
    // overwriting the no-longer-needed padded input.  It is real and
    // even, so its inverse DFT is Re(forward DFT)/N.
    simd::powerSpectrumExpand(scratch.spectrum.data(),
                              scratch.spectrum.size(),
                              scratch.real.data(), padded);
    realFft(scratch.real.data(), padded, plan, scratch.packed,
            scratch.corr);
    const double scale = 1.0 / static_cast<double>(padded);
    for (std::size_t lag = 0; lag <= top; ++lag)
        out[lag] = scratch.corr[lag].real() * scale;
}

std::vector<double>
autocorrelationSumsFft(const std::vector<double>& x, std::size_t max_lag)
{
    thread_local FftScratch scratch;
    std::vector<double> out;
    autocorrelationSumsFft(x.data(), x.size(), max_lag, scratch, out);
    return out;
}

} // namespace cchunter
