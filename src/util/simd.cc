#include "util/simd.hh"

#include <atomic>

#if defined(__x86_64__) && defined(__GNUC__)
#define CCHUNTER_SIMD_X86 1
#include <immintrin.h>
#endif

namespace cchunter
{

namespace
{

std::atomic<bool> g_simdEnabled{true};

#ifdef CCHUNTER_SIMD_X86
bool
detectAvx2()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
}

const bool g_haveAvx2 = detectAvx2();
#else
const bool g_haveAvx2 = false;
#endif

inline bool
useVector()
{
    return g_haveAvx2 &&
           g_simdEnabled.load(std::memory_order_relaxed);
}

} // namespace

void
setSimdEnabled(bool enabled)
{
    g_simdEnabled.store(enabled, std::memory_order_relaxed);
}

bool
simdEnabled()
{
    return g_simdEnabled.load(std::memory_order_relaxed);
}

const char*
simdBackendName()
{
    return useVector() ? "avx2" : "scalar";
}

namespace simd
{

namespace
{

// ---- scalar backends -------------------------------------------------
//
// These mirror the vector kernels operation for operation; the 4-lane
// tree in squaredDistanceScalar is deliberate, not an optimisation.

double
squaredDistanceScalar(const double* a, const double* b, std::size_t n)
{
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4) {
        const double d0 = a[i] - b[i];
        const double d1 = a[i + 1] - b[i + 1];
        const double d2 = a[i + 2] - b[i + 2];
        const double d3 = a[i + 3] - b[i + 3];
        l0 += d0 * d0;
        l1 += d1 * d1;
        l2 += d2 * d2;
        l3 += d3 * d3;
    }
    double total = (l0 + l2) + (l1 + l3);
    for (std::size_t i = n4; i < n; ++i) {
        const double d = a[i] - b[i];
        total += d * d;
    }
    return total;
}

void
divideInPlaceScalar(double* v, std::size_t n, double denom)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] /= denom;
}

void
scaleInPlaceScalar(double* v, std::size_t n, double s)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] *= s;
}

void
subtractScalarScalar(const double* x, std::size_t n, double c,
                     double* out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = x[i] - c;
}

void
powerSpectrumScalar(const std::complex<double>* spectrum,
                    std::size_t m1, double* power)
{
    for (std::size_t k = 0; k < m1; ++k) {
        const double re = spectrum[k].real();
        const double im = spectrum[k].imag();
        power[k] = re * re + im * im;
    }
}

void
butterflyStageScalar(std::complex<double>* a, std::size_t n,
                     const std::complex<double>* tw, std::size_t half,
                     bool inverse)
{
    for (std::size_t block = 0; block < n; block += 2 * half) {
        std::complex<double>* u = a + block;
        for (std::size_t j = 0; j < half; ++j) {
            const double wr = tw[j].real();
            const double wi = inverse ? -tw[j].imag() : tw[j].imag();
            const double br = u[j + half].real();
            const double bi = u[j + half].imag();
            const double vr = br * wr - bi * wi;
            const double vi = br * wi + bi * wr;
            const double ur = u[j].real();
            const double ui = u[j].imag();
            u[j] = std::complex<double>(ur + vr, ui + vi);
            u[j + half] = std::complex<double>(ur - vr, ui - vi);
        }
    }
}

// ---- AVX2 backends ---------------------------------------------------

#ifdef CCHUNTER_SIMD_X86

__attribute__((target("avx2"))) double
squaredDistanceAvx2(const double* a, const double* b, std::size_t n)
{
    __m256d acc = _mm256_setzero_pd();
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4) {
        const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                        _mm256_loadu_pd(b + i));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    // (l0+l2, l1+l3) then l0+l2 + (l1+l3): the tree the scalar
    // fallback replicates.
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    double total = _mm_cvtsd_f64(pair) +
                   _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
    for (std::size_t i = n4; i < n; ++i) {
        const double d = a[i] - b[i];
        total += d * d;
    }
    return total;
}

__attribute__((target("avx2"))) void
divideInPlaceAvx2(double* v, std::size_t n, double denom)
{
    const __m256d d = _mm256_set1_pd(denom);
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4)
        _mm256_storeu_pd(v + i,
                         _mm256_div_pd(_mm256_loadu_pd(v + i), d));
    for (std::size_t i = n4; i < n; ++i)
        v[i] /= denom;
}

__attribute__((target("avx2"))) void
scaleInPlaceAvx2(double* v, std::size_t n, double s)
{
    const __m256d f = _mm256_set1_pd(s);
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4)
        _mm256_storeu_pd(v + i,
                         _mm256_mul_pd(_mm256_loadu_pd(v + i), f));
    for (std::size_t i = n4; i < n; ++i)
        v[i] *= s;
}

__attribute__((target("avx2"))) void
subtractScalarAvx2(const double* x, std::size_t n, double c,
                   double* out)
{
    const __m256d cc = _mm256_set1_pd(c);
    const std::size_t n4 = n & ~std::size_t{3};
    for (std::size_t i = 0; i < n4; i += 4)
        _mm256_storeu_pd(out + i,
                         _mm256_sub_pd(_mm256_loadu_pd(x + i), cc));
    for (std::size_t i = n4; i < n; ++i)
        out[i] = x[i] - c;
}

__attribute__((target("avx2"))) void
powerSpectrumAvx2(const std::complex<double>* spectrum,
                  std::size_t m1, double* power)
{
    // Two complex values -> two |.|^2 per iteration.
    const double* s = reinterpret_cast<const double*>(spectrum);
    const std::size_t m2 = m1 & ~std::size_t{1};
    for (std::size_t k = 0; k < m2; k += 2) {
        const __m256d z = _mm256_loadu_pd(s + 2 * k); // r0 i0 r1 i1
        const __m256d sq = _mm256_mul_pd(z, z);
        const __m128d lo = _mm256_castpd256_pd128(sq);   // r0^2 i0^2
        const __m128d hi = _mm256_extractf128_pd(sq, 1); // r1^2 i1^2
        // (r0^2+i0^2, r1^2+i1^2)
        const __m128d p = _mm_add_pd(_mm_unpacklo_pd(lo, hi),
                                     _mm_unpackhi_pd(lo, hi));
        _mm_storeu_pd(power + k, p);
    }
    for (std::size_t k = m2; k < m1; ++k) {
        const double re = spectrum[k].real();
        const double im = spectrum[k].imag();
        power[k] = re * re + im * im;
    }
}

__attribute__((target("avx2"))) void
butterflyStageAvx2(std::complex<double>* a, std::size_t n,
                   const std::complex<double>* tw, std::size_t half,
                   bool inverse)
{
    // A one-butterfly block fills no vector: the first stage runs the
    // scalar loop.  Every later block is a whole number of two-value
    // vectors (half is a power of two >= 2).
    if (half == 1) {
        butterflyStageScalar(a, n, tw, half, inverse);
        return;
    }
    const double* wp = reinterpret_cast<const double*>(tw);
    const __m256d negIm =
        inverse ? _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
                : _mm256_setzero_pd();
    for (std::size_t block = 0; block < n; block += 2 * half) {
        double* ap = reinterpret_cast<double*>(a + block);
        double* bp = reinterpret_cast<double*>(a + block + half);
        for (std::size_t j = 0; j < half; j += 2) {
            const __m256d w = _mm256_xor_pd(
                _mm256_loadu_pd(wp + 2 * j), negIm); // wr0 wi0 wr1 wi1
            const __m256d b = _mm256_loadu_pd(bp + 2 * j);
            const __m256d wr = _mm256_movedup_pd(w);        // wr wr
            const __m256d wi = _mm256_permute_pd(w, 0xF);   // wi wi
            const __m256d bswap = _mm256_permute_pd(b, 0x5); // bi br
            // (br*wr - bi*wi, bi*wr + br*wi)
            const __m256d v = _mm256_addsub_pd(
                _mm256_mul_pd(b, wr), _mm256_mul_pd(bswap, wi));
            const __m256d u = _mm256_loadu_pd(ap + 2 * j);
            _mm256_storeu_pd(ap + 2 * j, _mm256_add_pd(u, v));
            _mm256_storeu_pd(bp + 2 * j, _mm256_sub_pd(u, v));
        }
    }
}

#endif // CCHUNTER_SIMD_X86

} // namespace

double
squaredDistance(const double* a, const double* b, std::size_t n)
{
#ifdef CCHUNTER_SIMD_X86
    if (useVector())
        return squaredDistanceAvx2(a, b, n);
#endif
    return squaredDistanceScalar(a, b, n);
}

void
divideInPlace(double* v, std::size_t n, double denom)
{
#ifdef CCHUNTER_SIMD_X86
    if (useVector()) {
        divideInPlaceAvx2(v, n, denom);
        return;
    }
#endif
    divideInPlaceScalar(v, n, denom);
}

void
scaleInPlace(double* v, std::size_t n, double s)
{
#ifdef CCHUNTER_SIMD_X86
    if (useVector()) {
        scaleInPlaceAvx2(v, n, s);
        return;
    }
#endif
    scaleInPlaceScalar(v, n, s);
}

void
subtractScalar(const double* x, std::size_t n, double c, double* out)
{
#ifdef CCHUNTER_SIMD_X86
    if (useVector()) {
        subtractScalarAvx2(x, n, c, out);
        return;
    }
#endif
    subtractScalarScalar(x, n, c, out);
}

void
powerSpectrumExpand(const std::complex<double>* spectrum,
                    std::size_t m1, double* power, std::size_t padded)
{
#ifdef CCHUNTER_SIMD_X86
    if (useVector())
        powerSpectrumAvx2(spectrum, m1, power);
    else
        powerSpectrumScalar(spectrum, m1, power);
#else
    powerSpectrumScalar(spectrum, m1, power);
#endif
    for (std::size_t k = 1; k < m1; ++k) {
        if (k != padded - k)
            power[padded - k] = power[k];
    }
}

void
butterflyStage(std::complex<double>* a, std::size_t n,
               const std::complex<double>* tw, std::size_t half,
               bool inverse)
{
#ifdef CCHUNTER_SIMD_X86
    if (useVector()) {
        butterflyStageAvx2(a, n, tw, half, inverse);
        return;
    }
#endif
    butterflyStageScalar(a, n, tw, half, inverse);
}

} // namespace simd

} // namespace cchunter
