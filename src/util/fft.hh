/**
 * @file
 * Dependency-free radix-2 FFT kernels.
 *
 * The detection analyses need full autocorrelograms of event trains
 * that can reach 2^18+ samples per analysis window; the direct O(N·L)
 * evaluation collapses at that scale.  These kernels provide the
 * O(N log N) building blocks: an iterative in-place complex FFT, a
 * real-input transform that packs the series into a half-length
 * complex FFT, and a Wiener-Khinchin raw-autocorrelation helper that
 * zero-pads to avoid circular wrap-around.
 *
 * Twiddle factors live in an FftPlan that is cached per thread and
 * per transform size (or passed explicitly by batching callers), and
 * every kernel has a scratch-buffer overload so steady-state analysis
 * allocates nothing.  The planned tables are built with the same
 * incremental recurrence the unplanned kernels used, so transform
 * output is bit-identical whether a plan is cached, fresh, or shared
 * across a batch.
 */

#ifndef CCHUNTER_UTIL_FFT_HH
#define CCHUNTER_UTIL_FFT_HH

#include <array>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cchunter
{

/** Smallest power of two >= n (returns 1 for n <= 1). */
std::size_t nextPowerOfTwo(std::size_t n);

/**
 * Precomputed twiddle tables for one complex transform size n (a
 * power of two).  Holds the per-stage butterfly twiddles (n-1 values;
 * stage of length `len` owns len/2 of them) and the half-bin factors
 * e^{-2πik/(2n)}, k = 0..n, that a real transform of length 2n needs
 * to untangle its packed half-spectra, and the (i, j), i < j, index
 * pairs the bit-reversal permutation swaps.  Building a plan is the
 * only place sin/cos is evaluated and the only place bit reversal
 * branches; reusing one across same-size transforms is what the
 * thread-local cache (and the fleet's batched pass) buys.
 */
class FftPlan
{
  public:
    FftPlan() = default;

    /** Build tables for complex size n (power of two, >= 1). */
    explicit FftPlan(std::size_t n);

    std::size_t size() const { return n_; }

    /** Twiddles w^0..w^{len/2-1}, w = e^{-2πi/len}, for the butterfly
     *  stage of length `len` (2 <= len <= size(), power of two). */
    const std::complex<double>* stageTwiddles(std::size_t len) const
    {
        return twiddles_.data() + (len / 2 - 1);
    }

    /** e^{-2πik/(2n)} for k = 0..n: the real-transform untangle
     *  factors (n+1 values). */
    const std::complex<double>* untangleTwiddles() const
    {
        return untangle_.data();
    }

    /** The bit-reversal permutation as index swaps, in increasing
     *  order of the lower index. */
    const std::vector<std::array<std::uint32_t, 2>>&
    bitReversalSwaps() const
    {
        return swaps_;
    }

  private:
    std::size_t n_ = 0;
    std::vector<std::complex<double>> twiddles_;
    std::vector<std::complex<double>> untangle_;
    std::vector<std::array<std::uint32_t, 2>> swaps_;
};

/** The thread-local plan cache: builds (once per thread and size) and
 *  returns the plan for complex size n.  The reference stays valid
 *  for the lifetime of the thread. */
const FftPlan& fftPlanFor(std::size_t n);

/**
 * In-place iterative radix-2 FFT.  The size must be a power of two
 * (1 is allowed).  The inverse transform applies the 1/N scale, so
 * fftInPlace(a); fftInPlace(a, true); is the identity up to roundoff.
 * The vector overload uses the thread-local plan cache; the pointer
 * overload takes an explicit plan (plan.size() == n).
 */
void fftInPlace(std::vector<std::complex<double>>& a,
                bool inverse = false);
void fftInPlace(std::complex<double>* a, std::size_t n,
                const FftPlan& plan, bool inverse = false);

/**
 * Forward DFT of a real series of power-of-two length N >= 2, computed
 * with one complex FFT of length N/2 (even samples packed into the
 * real lane, odd samples into the imaginary lane).  Returns the
 * non-redundant bins 0..N/2 inclusive; the remaining bins follow from
 * conjugate symmetry X[N-k] = conj(X[k]).
 *
 * The pointer overload takes the plan for the *half* size N/2 plus a
 * reusable packing buffer, and resizes `out` to N/2+1 (no allocation
 * once the buffers have reached capacity).
 */
std::vector<std::complex<double>> realFft(const std::vector<double>& x);
void realFft(const double* x, std::size_t n, const FftPlan& plan,
             std::vector<std::complex<double>>& packed,
             std::vector<std::complex<double>>& out);

/** Reusable buffers for autocorrelationSumsFft / autocorrelogramFft.
 *  One instance per analysis thread (or per batch) keeps the hot
 *  path's steady state allocation-free. */
struct FftScratch
{
    std::vector<double> real;     //!< padded input, then power spectrum
    std::vector<double> centered; //!< mean-removed series (correlogram)
    std::vector<std::complex<double>> packed;   //!< half-length packing
    std::vector<std::complex<double>> spectrum; //!< first transform
    std::vector<std::complex<double>> corr;     //!< second transform
};

/** Padded transform length autocorrelationSumsFft uses for a series
 *  of length n at max_lag (what batching groups by). */
std::size_t autocorrPaddedSize(std::size_t n, std::size_t max_lag);

/**
 * Raw (unnormalised) autocorrelation sums via Wiener-Khinchin:
 *
 *   out[lag] = sum_{i=0}^{n-1-lag} x[i] * x[i+lag],  lag = 0..max_lag
 *
 * The series is zero-padded to the next power of two >= n + max_lag
 * so the circular correlation of the padded series equals the linear
 * correlation of the original.  Lags >= n are exactly zero.  Cost is
 * O(N log N) in the padded length, independent of max_lag.
 *
 * The scratch overload writes into `out` (resized to max_lag+1) and
 * reuses the caller's buffers; the vector overload delegates to a
 * thread-local scratch.
 */
std::vector<double> autocorrelationSumsFft(const std::vector<double>& x,
                                           std::size_t max_lag);
void autocorrelationSumsFft(const double* x, std::size_t n,
                            std::size_t max_lag, FftScratch& scratch,
                            std::vector<double>& out);

} // namespace cchunter

#endif // CCHUNTER_UTIL_FFT_HH
