/**
 * @file
 * The single-accumulator oscillation-analysis kernels: the test-side
 * reference for the correlogram, transform and decision kernels in
 * src/detect and src/util.
 *
 * These are the kernels the detector ran before they were rewritten
 * to cost what the series needs: a direct correlogram that sums each
 * lag in one serial add chain, a radix-2 FFT that dispatches one
 * butterfly block at a time after a branchy bit-reversal and
 * untangles its real transform through std::complex with `% m`
 * indexing, and a decision pass that scans every lag up to maxLag.
 * The production kernels promise byte-identical output; the
 * byte-identity fuzz compares them against these with memcmp.
 *
 * The butterfly here is the scalar block (the vector backend is
 * bit-identical to it by the simd.hh contract), so a comparison under
 * either setting of the SIMD toggle checks the vector backend too.
 */

#ifndef CCHUNTER_TESTS_REFERENCE_AUTOCORRELATION_KERNELS_HH
#define CCHUNTER_TESTS_REFERENCE_AUTOCORRELATION_KERNELS_HH

#include <complex>
#include <cstddef>
#include <vector>

#include "detect/oscillation_detector.hh"
#include "util/fft.hh"

namespace cchunter::reference
{

/** Direct correlogram, one serial accumulator per lag. */
std::vector<double> autocorrelogramNaive(
    const std::vector<double>& series, std::size_t max_lag);

/** In-place radix-2 FFT, one butterfly-block call per block. */
void fftInPlace(std::complex<double>* a, std::size_t n,
                const FftPlan& plan, bool inverse = false);

/** Real-input FFT through a half-length complex transform. */
void realFft(const double* x, std::size_t n, const FftPlan& plan,
             std::vector<std::complex<double>>& packed,
             std::vector<std::complex<double>>& out);

/** Raw autocorrelation sums via Wiener-Khinchin. */
void autocorrelationSumsFft(const double* x, std::size_t n,
                            std::size_t max_lag, FftScratch& scratch,
                            std::vector<double>& out);

/** FFT correlogram (mean-centred, normalised by r_0). */
std::vector<double> autocorrelogramFft(
    const std::vector<double>& series, std::size_t max_lag);

/** Correlogram through the kFftAutocorr* dispatch rule. */
std::vector<double> autocorrelogram(const std::vector<double>& series,
                                    std::size_t max_lag);

/** Peak finder over the whole correlogram. */
std::vector<AutocorrPeak> findPeaks(
    const std::vector<double>& correlogram, double min_value,
    std::size_t min_separation = 8);

/** Decision pass over every lag of the correlogram. */
void decideOscillation(OscillationAnalysis& analysis,
                       const OscillationParams& params);

} // namespace cchunter::reference

#endif // CCHUNTER_TESTS_REFERENCE_AUTOCORRELATION_KERNELS_HH
