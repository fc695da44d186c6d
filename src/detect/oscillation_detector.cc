#include "detect/oscillation_detector.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/logging.hh"
#include "util/stats.hh"

namespace cchunter
{

OscillationDetector::OscillationDetector(OscillationParams params)
    : params_(params)
{
    if (params_.maxLag < 2)
        fatal("OscillationDetector: maxLag must be at least 2");
}

OscillationAnalysis
OscillationDetector::analyze(const std::vector<double>& series) const
{
    OscillationAnalysis out;
    out.seriesLength = series.size();
    out.correlogram = autocorrelogram(series, params_.maxLag);
    decideOscillation(out, params_);
    return out;
}

void
decideOscillation(OscillationAnalysis& out,
                  const OscillationParams& params)
{
    // Reset every derived field so a stored analysis can be re-decided
    // under new thresholds.
    out.peaks.clear();
    out.r1 = 0.0;
    out.dominantLag = 0;
    out.dominantValue = 0.0;
    out.deepestTrough = 0.0;
    out.periodScore = 0.0;
    out.spanFraction = 0.0;
    out.oscillating = false;

    // Every producer leaves lags >= seriesLength at exact zeros, and
    // none of them can matter: a zero cannot lower the trough below
    // its 0 start, and from lag seriesLength+1 on every zero follows
    // a zero, which findPeaks skips as a plateau.  So only lags up to
    // seriesLength+1 (the neighbour of the first zero) are read.
    const std::vector<double>& gram = out.correlogram;
    assert(std::all_of(gram.begin() + static_cast<std::ptrdiff_t>(
                           std::min(gram.size(), out.seriesLength)),
                       gram.end(), [](double r) { return r == 0.0; }));
    if (out.seriesLength < params.minSeriesLength)
        return;
    const std::size_t live =
        std::min(gram.size(), out.seriesLength + 2);

    out.r1 = gram.size() > 1 ? gram[1] : 0.0;
    for (std::size_t lag = 1; lag < live; ++lag)
        out.deepestTrough = std::min(out.deepestTrough, gram[lag]);

    out.peaks = findPeaks(gram.data(), live, params.peakThreshold,
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
        // Multi-peak signature: evenly spaced peaks spanning most of the
        // lag range.
        std::vector<double> spacings;
        spacings.reserve(out.peaks.size() - 1);
        for (std::size_t i = 1; i < out.peaks.size(); ++i)
            spacings.push_back(static_cast<double>(
                out.peaks[i].lag - out.peaks[i - 1].lag));
        const double mean_spacing = meanOf(spacings);
        const double sd = std::sqrt(varianceOf(spacings));
        out.periodScore = mean_spacing > 0.0 ?
            std::clamp(1.0 - sd / mean_spacing, 0.0, 1.0) : 0.0;
        // Span from the origin through the last peak: a full periodic
        // train has peaks from ~period through ~maxLag.
        out.spanFraction =
            static_cast<double>(out.peaks.back().lag) /
            static_cast<double>(params.maxLag);
        if (out.periodScore >= params.minPeriodScore &&
            out.spanFraction >= params.minSpanFraction) {
            out.oscillating = true;
        }
    }

    if (!out.oscillating) {
        // Single-strong-peak signature: one high peak plus a deep
        // negative trough near the half period (square-wave train whose
        // period fits the correlogram only once).
        if (out.dominantValue >= params.strongPeakThreshold &&
            out.deepestTrough <= -params.troughThreshold) {
            out.oscillating = true;
            // The dominant period estimate remains the strongest peak.
        }
    }
}

bool
OscillationAnalysis::oscillatingAt(const OscillationParams& params) const
{
    OscillationAnalysis copy = *this;
    decideOscillation(copy, params);
    return copy.oscillating;
}

} // namespace cchunter
