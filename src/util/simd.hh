/**
 * @file
 * Portable vectorization shim for the analysis hot loops.
 *
 * Every kernel here has exactly two implementations: a widest
 * compiled-in vector path (AVX2 on x86-64, selected at runtime with
 * __builtin_cpu_supports) and a scalar fallback.  The fallbacks are
 * not naive reference loops — they are pinned to the *same* operation
 * structure as the vector path (no FMA contraction, identical
 * reduction tree), so both backends produce bit-identical results and
 * the detection pipeline's golden streams do not depend on the host
 * CPU.  Elementwise kernels (butterflies, divides, subtracts) are
 * bit-identical by construction; the one reduction kernel
 * (squaredDistance) fixes a 4-lane accumulator tree in both backends.
 *
 * The runtime toggle (setSimdEnabled, config key `analysis.simd`)
 * forces the scalar fallback everywhere — used by the equivalence
 * tests and as an escape hatch on hosts with poor vector units.
 */

#ifndef CCHUNTER_UTIL_SIMD_HH
#define CCHUNTER_UTIL_SIMD_HH

#include <complex>
#include <cstddef>

namespace cchunter
{

/** Globally enable/disable the vector backends (default: enabled).
 *  Takes effect on the next kernel call; thread-safe. */
void setSimdEnabled(bool enabled);

/** Current state of the runtime toggle. */
bool simdEnabled();

/** Name of the backend kernels dispatch to right now: "avx2" or
 *  "scalar" (the latter either because the host lacks the extension,
 *  the build does, or the toggle is off). */
const char* simdBackendName();

namespace simd
{

/**
 * Sum of squared differences between two length-n arrays with a fixed
 * 4-lane accumulator tree: lane l accumulates indices congruent to l
 * mod 4 over the aligned body, the total is (l0+l2)+(l1+l3), and the
 * tail (n mod 4 elements) is added sequentially afterwards.  Both
 * backends implement exactly this tree, so results are bit-identical
 * — but note the tree differs from a plain sequential sum.
 */
double squaredDistance(const double* a, const double* b,
                       std::size_t n);

/** v[i] /= denom for i in [0, n).  Elementwise, bit-identical. */
void divideInPlace(double* v, std::size_t n, double denom);

/** v[i] *= s for i in [0, n).  Elementwise, bit-identical. */
void scaleInPlace(double* v, std::size_t n, double s);

/** out[i] = x[i] - c for i in [0, n).  Elementwise, bit-identical. */
void subtractScalar(const double* x, std::size_t n, double c,
                    double* out);

/**
 * Power spectrum of a half-spectrum, expanded to full length by
 * conjugate symmetry: power[k] = re^2 + im^2 for k in [0, m1), then
 * power[padded-k] = power[k] for k in [1, m1) with k != padded-k.
 * Requires m1 == padded/2 + 1; every entry of power[0..padded) is
 * written.  Elementwise, bit-identical.
 */
void powerSpectrumExpand(const std::complex<double>* spectrum,
                         std::size_t m1, double* power,
                         std::size_t padded);

/**
 * One radix-2 butterfly stage over a whole transform of n complex
 * values: for every block of 2*half values starting at a multiple of
 * 2*half,
 *
 *   v = a[j+half] * tw[j]   (tw conjugated when inverse)
 *   a[j]      = a[j] + v
 *   a[j+half] = a[j] - v        for j in [0, half)
 *
 * The complex product is (br*wr - bi*wi, br*wi + bi*wr) with no FMA
 * contraction in either backend, matching std::complex::operator*=
 * exactly, so the transform output is bit-identical to the scalar
 * (and to the pre-shim) FFT.  One call covers every block of the
 * stage, so a transform of size n makes log2(n) calls, not n-1.
 */
void butterflyStage(std::complex<double>* a, std::size_t n,
                    const std::complex<double>* tw, std::size_t half,
                    bool inverse);

} // namespace simd

} // namespace cchunter

#endif // CCHUNTER_UTIL_SIMD_HH
