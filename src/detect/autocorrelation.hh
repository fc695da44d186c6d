/**
 * @file
 * Autocorrelation analysis (paper section IV-D).
 *
 * Cache-based covert timing channels modulate event *latency* rather than
 * inter-event intervals; the (replacer, victim)-labelled conflict-miss
 * event train then oscillates with a period tied to the number of cache
 * sets used for transmission.  Oscillation is measured through the
 * autocorrelation coefficient of the label series with time-lagged
 * versions of itself.
 */

#ifndef CCHUNTER_DETECT_AUTOCORRELATION_HH
#define CCHUNTER_DETECT_AUTOCORRELATION_HH

#include <cstddef>
#include <vector>

#include "util/fft.hh"

namespace cchunter
{

/**
 * Autocorrelation coefficient r_p of a series at a single lag p:
 *
 *   r_p = sum_{i=1}^{n-p} (X_i - mean)(X_{i+p} - mean)
 *         / sum_{i=1}^{n} (X_i - mean)^2
 *
 * Returns 0 for degenerate inputs (p >= n or zero variance).
 */
double autocorrelationAt(const std::vector<double>& series,
                         std::size_t lag);

/**
 * An autocorrelogram: coefficients for lags 0..maxLag (inclusive).
 * r_0 is 1 by definition for a non-degenerate series.
 *
 * Dispatches between the direct O(N·L) evaluation and the FFT-based
 * O(N log N) Wiener-Khinchin evaluation: the FFT path is taken when
 * the series has at least kFftAutocorrMinSeries samples and the
 * direct op count n·(max_lag+1) reaches kFftAutocorrOpsThreshold.
 * Both paths agree within ~1e-12 per coefficient.
 */
std::vector<double> autocorrelogram(const std::vector<double>& series,
                                    std::size_t max_lag);

/** Direct O(N·L) correlogram (the dispatch fallback).  Evaluates
 *  lags 0..min(max_lag, n-1) four at a time over the mean-centred
 *  series; each coefficient sums its terms in index order, so it is
 *  bit-identical to a one-lag-at-a-time evaluation.  Lags >= n are
 *  exact zeros. */
std::vector<double> autocorrelogramNaive(
    const std::vector<double>& series, std::size_t max_lag);

/** FFT-based O(N log N) correlogram via Wiener-Khinchin.  The
 *  scratch overload writes into `out` (resized to max_lag+1) reusing
 *  the caller's buffers, so repeated windows allocate nothing once
 *  the buffers reach capacity; the vector overload delegates to a
 *  thread-local scratch. */
std::vector<double> autocorrelogramFft(
    const std::vector<double>& series, std::size_t max_lag);
void autocorrelogramFft(const std::vector<double>& series,
                        std::size_t max_lag, FftScratch& scratch,
                        std::vector<double>& out);

/** Minimum series length before the FFT path is considered. */
constexpr std::size_t kFftAutocorrMinSeries = 256;

/** Direct-path op count n·(max_lag+1) above which FFT wins.  Below
 *  this the padded transforms cost more than the double loop. */
constexpr std::size_t kFftAutocorrOpsThreshold = std::size_t{1} << 18;

/** The dispatch rule: true when autocorrelogram() takes the FFT path
 *  for a series of length n at max_lag. */
bool autocorrelogramUsesFft(std::size_t n, std::size_t max_lag);

/** A detected autocorrelogram peak. */
struct AutocorrPeak
{
    std::size_t lag = 0;  //!< lag of the local maximum
    double value = 0.0;   //!< coefficient at that lag
};

/**
 * Find local maxima of an autocorrelogram above a floor value,
 * excluding lag 0 and enforcing a minimum separation between peaks.
 */
std::vector<AutocorrPeak> findPeaks(const std::vector<double>& correlogram,
                                    double min_value,
                                    std::size_t min_separation = 8);

/** findPeaks over the first `n` coefficients of a correlogram. */
std::vector<AutocorrPeak> findPeaks(const double* correlogram,
                                    std::size_t n, double min_value,
                                    std::size_t min_separation = 8);

} // namespace cchunter

#endif // CCHUNTER_DETECT_AUTOCORRELATION_HH
