#include "detect/autocorrelation.hh"

#include <algorithm>

#include "util/fft.hh"
#include "util/simd.hh"
#include "util/stats.hh"

namespace cchunter
{

namespace
{

/** Shared denominator: total sum of squared deviations. */
double
sumSquaredDeviations(const std::vector<double>& series, double mean)
{
    double s = 0.0;
    for (double x : series)
        s += (x - mean) * (x - mean);
    return s;
}

double
numeratorAt(const std::vector<double>& series, double mean,
            std::size_t lag)
{
    double s = 0.0;
    for (std::size_t i = 0; i + lag < series.size(); ++i)
        s += (series[i] - mean) * (series[i + lag] - mean);
    return s;
}

/** The calling thread's analysis buffers, shared by the direct and
 *  FFT correlograms (neither re-enters the other). */
FftScratch&
threadScratch()
{
    thread_local FftScratch scratch;
    return scratch;
}

} // namespace

double
autocorrelationAt(const std::vector<double>& series, std::size_t lag)
{
    if (series.size() < 2 || lag >= series.size())
        return 0.0;
    const double mean = meanOf(series);
    const double denom = sumSquaredDeviations(series, mean);
    if (denom == 0.0)
        return 0.0;
    return numeratorAt(series, mean, lag) / denom;
}

std::vector<double>
autocorrelogramNaive(const std::vector<double>& series,
                     std::size_t max_lag)
{
    std::vector<double> out(max_lag + 1, 0.0);
    const std::size_t n = series.size();
    if (n < 2)
        return out;
    const double mean = meanOf(series);
    std::vector<double>& centred = threadScratch().centered;
    centred.resize(n);
    simd::subtractScalar(series.data(), n, mean, centred.data());
    const double* c = centred.data();
    // The same terms, in the same order, as r_0's numerator.
    double denom = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        denom += c[i] * c[i];
    if (denom == 0.0)
        return out;

    // Lags >= n have no terms and stay exact zeros.  The rest go four
    // at a time: four independent accumulators share each c[i] load,
    // and each still adds its own terms in index order, so every
    // coefficient rounds exactly as a one-lag-at-a-time sum would.
    const std::size_t top = std::min(max_lag, n - 1);
    std::size_t lag = 0;
    for (; lag + 3 <= top; lag += 4) {
        const double* d = c + lag;
        const std::size_t common = n - lag - 3; // terms of lag+3
        double s0 = 0.0;
        double s1 = 0.0;
        double s2 = 0.0;
        double s3 = 0.0;
        for (std::size_t i = 0; i < common; ++i) {
            const double ci = c[i];
            s0 += ci * d[i];
            s1 += ci * d[i + 1];
            s2 += ci * d[i + 2];
            s3 += ci * d[i + 3];
        }
        // The shorter lags' last terms, still in index order.
        s0 += c[common] * d[common];
        s0 += c[common + 1] * d[common + 1];
        s0 += c[common + 2] * d[common + 2];
        s1 += c[common] * d[common + 1];
        s1 += c[common + 1] * d[common + 2];
        s2 += c[common] * d[common + 2];
        out[lag] = s0 / denom;
        out[lag + 1] = s1 / denom;
        out[lag + 2] = s2 / denom;
        out[lag + 3] = s3 / denom;
    }
    for (; lag <= top; ++lag) {
        double s = 0.0;
        for (std::size_t i = 0; i + lag < n; ++i)
            s += c[i] * c[i + lag];
        out[lag] = s / denom;
    }
    return out;
}

void
autocorrelogramFft(const std::vector<double>& series,
                   std::size_t max_lag, FftScratch& scratch,
                   std::vector<double>& out)
{
    const std::size_t n = series.size();
    if (n < 2) {
        out.assign(max_lag + 1, 0.0);
        return;
    }
    const double mean = meanOf(series);
    // The exact degeneracy test (a constant series must yield all
    // zeros, not roundoff noise) uses the direct denominator.
    if (sumSquaredDeviations(series, mean) == 0.0) {
        out.assign(max_lag + 1, 0.0);
        return;
    }

    scratch.centered.resize(n);
    simd::subtractScalar(series.data(), n, mean,
                         scratch.centered.data());
    autocorrelationSumsFft(scratch.centered.data(), n, max_lag,
                           scratch, out);
    // out[0] is the sum of squared deviations computed by the same
    // transform, so r_0 normalises to exactly 1.
    const double denom = out[0];
    if (denom <= 0.0) {
        out.assign(max_lag + 1, 0.0);
        return;
    }
    simd::divideInPlace(out.data(), out.size(), denom);
}

std::vector<double>
autocorrelogramFft(const std::vector<double>& series, std::size_t max_lag)
{
    std::vector<double> out;
    autocorrelogramFft(series, max_lag, threadScratch(), out);
    return out;
}

bool
autocorrelogramUsesFft(std::size_t n, std::size_t max_lag)
{
    return n >= kFftAutocorrMinSeries &&
           n * (max_lag + 1) >= kFftAutocorrOpsThreshold;
}

std::vector<double>
autocorrelogram(const std::vector<double>& series, std::size_t max_lag)
{
    if (autocorrelogramUsesFft(series.size(), max_lag))
        return autocorrelogramFft(series, max_lag);
    return autocorrelogramNaive(series, max_lag);
}

std::vector<AutocorrPeak>
findPeaks(const std::vector<double>& correlogram, double min_value,
          std::size_t min_separation)
{
    return findPeaks(correlogram.data(), correlogram.size(), min_value,
                     min_separation);
}

std::vector<AutocorrPeak>
findPeaks(const double* correlogram, std::size_t n, double min_value,
          std::size_t min_separation)
{
    std::vector<AutocorrPeak> peaks;
    for (std::size_t lag = 1; lag + 1 < n; ++lag) {
        const double v = correlogram[lag];
        if (v < min_value)
            continue;
        if (v < correlogram[lag - 1] || v < correlogram[lag + 1])
            continue;
        // Plateau handling: take the first sample of a flat top only.
        if (correlogram[lag - 1] == v)
            continue;
        if (!peaks.empty() && lag - peaks.back().lag < min_separation) {
            if (v > peaks.back().value)
                peaks.back() = AutocorrPeak{lag, v};
            continue;
        }
        peaks.push_back(AutocorrPeak{lag, v});
    }
    return peaks;
}

} // namespace cchunter
