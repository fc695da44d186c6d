#include "reference/autocorrelation_kernels.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/simd.hh"
#include "util/stats.hh"

namespace cchunter::reference
{

namespace
{

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

bool
isPowerOfTwo(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

void
butterflyBlockScalar(std::complex<double>* a,
                     const std::complex<double>* tw, std::size_t half,
                     bool inverse)
{
    for (std::size_t j = 0; j < half; ++j) {
        const double wr = tw[j].real();
        const double wi = inverse ? -tw[j].imag() : tw[j].imag();
        const double br = a[j + half].real();
        const double bi = a[j + half].imag();
        const double vr = br * wr - bi * wi;
        const double vi = br * wi + bi * wr;
        const double ur = a[j].real();
        const double ui = a[j].imag();
        a[j] = std::complex<double>(ur + vr, ui + vi);
        a[j + half] = std::complex<double>(ur - vr, ui - vi);
    }
}

} // namespace

std::vector<double>
autocorrelogramNaive(const std::vector<double>& series,
                     std::size_t max_lag)
{
    std::vector<double> out;
    out.reserve(max_lag + 1);
    if (series.size() < 2) {
        out.assign(max_lag + 1, 0.0);
        return out;
    }
    const double mean = meanOf(series);
    const double denom = sumSquaredDeviations(series, mean);
    if (denom == 0.0) {
        out.assign(max_lag + 1, 0.0);
        return out;
    }
    for (std::size_t lag = 0; lag <= max_lag; ++lag) {
        if (lag >= series.size()) {
            out.push_back(0.0);
            continue;
        }
        out.push_back(numeratorAt(series, mean, lag) / denom);
    }
    return out;
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

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(a[i], a[j]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::complex<double>* tw = plan.stageTwiddles(len);
        for (std::size_t i = 0; i < n; i += len)
            butterflyBlockScalar(a + i, tw, len / 2, inverse);
    }

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        simd::scaleInPlace(reinterpret_cast<double*>(a), 2 * n,
                           scale);
    }
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

    packed.resize(m);
    for (std::size_t j = 0; j < m; ++j)
        packed[j] = std::complex<double>(x[2 * j], x[2 * j + 1]);
    reference::fftInPlace(packed.data(), m, plan);

    out.resize(m + 1);
    const std::complex<double> half(0.5, 0.0);
    const std::complex<double> minusHalfI(0.0, -0.5);
    const std::complex<double>* w = plan.untangleTwiddles();
    for (std::size_t k = 0; k <= m; ++k) {
        const std::complex<double> zk = packed[k % m];
        const std::complex<double> zmk =
            std::conj(packed[(m - k) % m]);
        const std::complex<double> even = (zk + zmk) * half;
        const std::complex<double> odd = (zk - zmk) * minusHalfI;
        out[k] = even + w[k] * odd;
    }
}

void
autocorrelationSumsFft(const double* x, std::size_t n,
                       std::size_t max_lag, FftScratch& scratch,
                       std::vector<double>& out)
{
    out.assign(max_lag + 1, 0.0);
    if (n == 0)
        return;
    const std::size_t top = std::min(max_lag, n - 1);
    const std::size_t padded = autocorrPaddedSize(n, max_lag);
    const FftPlan& plan = fftPlanFor(padded / 2);

    scratch.real.assign(padded, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        scratch.real[i] = x[i];

    reference::realFft(scratch.real.data(), padded, plan,
                       scratch.packed, scratch.spectrum);

    simd::powerSpectrumExpand(scratch.spectrum.data(),
                              scratch.spectrum.size(),
                              scratch.real.data(), padded);
    reference::realFft(scratch.real.data(), padded, plan,
                       scratch.packed, scratch.corr);
    const double scale = 1.0 / static_cast<double>(padded);
    for (std::size_t lag = 0; lag <= top; ++lag)
        out[lag] = scratch.corr[lag].real() * scale;
}

std::vector<double>
autocorrelogramFft(const std::vector<double>& series, std::size_t max_lag)
{
    FftScratch scratch;
    std::vector<double> out;
    const std::size_t n = series.size();
    if (n < 2) {
        out.assign(max_lag + 1, 0.0);
        return out;
    }
    const double mean = meanOf(series);
    if (sumSquaredDeviations(series, mean) == 0.0) {
        out.assign(max_lag + 1, 0.0);
        return out;
    }

    scratch.centered.resize(n);
    simd::subtractScalar(series.data(), n, mean,
                         scratch.centered.data());
    reference::autocorrelationSumsFft(scratch.centered.data(), n,
                                      max_lag, scratch, out);
    const double denom = out[0];
    if (denom <= 0.0) {
        out.assign(max_lag + 1, 0.0);
        return out;
    }
    simd::divideInPlace(out.data(), out.size(), denom);
    return out;
}

std::vector<double>
autocorrelogram(const std::vector<double>& series, std::size_t max_lag)
{
    if (series.size() >= kFftAutocorrMinSeries &&
        series.size() * (max_lag + 1) >= kFftAutocorrOpsThreshold)
        return reference::autocorrelogramFft(series, max_lag);
    return reference::autocorrelogramNaive(series, max_lag);
}

std::vector<AutocorrPeak>
findPeaks(const std::vector<double>& correlogram, double min_value,
          std::size_t min_separation)
{
    std::vector<AutocorrPeak> peaks;
    const std::size_t n = correlogram.size();
    for (std::size_t lag = 1; lag + 1 < n; ++lag) {
        const double v = correlogram[lag];
        if (v < min_value)
            continue;
        if (v < correlogram[lag - 1] || v < correlogram[lag + 1])
            continue;
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

void
decideOscillation(OscillationAnalysis& out,
                  const OscillationParams& params)
{
    out.peaks.clear();
    out.r1 = 0.0;
    out.dominantLag = 0;
    out.dominantValue = 0.0;
    out.deepestTrough = 0.0;
    out.periodScore = 0.0;
    out.spanFraction = 0.0;
    out.oscillating = false;
    if (out.seriesLength < params.minSeriesLength)
        return;

    out.r1 = out.correlogram.size() > 1 ? out.correlogram[1] : 0.0;
    for (std::size_t lag = 1; lag < out.correlogram.size(); ++lag)
        out.deepestTrough =
            std::min(out.deepestTrough, out.correlogram[lag]);

    out.peaks = reference::findPeaks(out.correlogram,
                                     params.peakThreshold,
                                     params.minPeakSeparation);
    if (out.peaks.empty())
        return;

    const auto strongest = std::max_element(
        out.peaks.begin(), out.peaks.end(),
        [](const AutocorrPeak& a, const AutocorrPeak& b) {
            return a.value < b.value;
        });
    out.dominantLag = strongest->lag;
    out.dominantValue = strongest->value;

    if (out.peaks.size() >= 2) {
        std::vector<double> spacings;
        spacings.reserve(out.peaks.size() - 1);
        for (std::size_t i = 1; i < out.peaks.size(); ++i)
            spacings.push_back(static_cast<double>(
                out.peaks[i].lag - out.peaks[i - 1].lag));
        const double mean_spacing = meanOf(spacings);
        const double sd = std::sqrt(varianceOf(spacings));
        out.periodScore = mean_spacing > 0.0 ?
            std::clamp(1.0 - sd / mean_spacing, 0.0, 1.0) : 0.0;
        out.spanFraction =
            static_cast<double>(out.peaks.back().lag) /
            static_cast<double>(params.maxLag);
        if (out.periodScore >= params.minPeriodScore &&
            out.spanFraction >= params.minSpanFraction) {
            out.oscillating = true;
        }
    }

    if (!out.oscillating) {
        if (out.dominantValue >= params.strongPeakThreshold &&
            out.deepestTrough <= -params.troughThreshold) {
            out.oscillating = true;
        }
    }
}

} // namespace cchunter::reference
