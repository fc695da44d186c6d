#include "detect/detector.hh"

#include <sstream>

#include "util/logging.hh"

namespace cchunter
{

std::string
ContentionVerdict::summary() const
{
    std::ostringstream os;
    os << (detected ? "DETECTED" : "clean")
       << " likelihood=" << combined.likelihoodRatio
       << " threshold_bin=" << combined.thresholdBin
       << " burst_peak_bin=" << combined.burstPeakBin
       << " bursty_quanta=" << recurrence.burstyQuanta
       << " recurrent=" << (recurrence.recurrent ? "yes" : "no");
    return os.str();
}

std::string
OscillationVerdict::summary() const
{
    std::ostringstream os;
    os << (detected ? "DETECTED" : "clean")
       << " dominant_lag=" << analysis.dominantLag
       << " peak=" << analysis.dominantValue
       << " trough=" << analysis.deepestTrough
       << " period_score=" << analysis.periodScore
       << " events=" << analysis.seriesLength;
    return os.str();
}

bool
ContentionVerdict::detectedAt(double likelihood_threshold,
                              const PatternClusteringParams& params)
    const
{
    if (perQuantum.empty())
        return false;
    // Mirror analyzeContention's decision rule: one quantum decides on
    // its own significance, multiple quanta on recurrence.
    if (perQuantum.size() == 1)
        return combined.significantAt(likelihood_threshold,
                                      params.burst);
    return recurrence.recurrentAt(likelihood_threshold, params);
}

bool
OscillationVerdict::detectedAt(const OscillationParams& params) const
{
    return analysis.oscillatingAt(params);
}

const char*
detectBackendName(DetectBackend backend)
{
    switch (backend) {
    case DetectBackend::CCHunter:
        return "cchunter";
    case DetectBackend::Indicator2:
        return "indicator2";
    }
    return "?";
}

DetectBackend
detectBackendFromName(const std::string& name)
{
    for (const DetectBackend b :
         {DetectBackend::CCHunter, DetectBackend::Indicator2})
        if (name == detectBackendName(b))
            return b;
    fatal("unknown detect backend '", name,
          "' (valid: cchunter, indicator2)");
}

void
DetectionThresholds::validate() const
{
    for (const double t :
         {contentionLikelihood, oscillationPeak, oscillationStrongPeak,
          indicator2Threshold})
        if (t < 0.0 || t > 1.0)
            fatal("DetectionThresholds: cut-off ", t,
                  " outside [0, 1]");
}

CCHunterParams
DetectionThresholds::apply(CCHunterParams base) const
{
    validate();
    base.clustering.burst.likelihoodThreshold = contentionLikelihood;
    base.oscillation.peakThreshold = oscillationPeak;
    base.oscillation.strongPeakThreshold = oscillationStrongPeak;
    return base;
}

CCHunter::CCHunter(CCHunterParams params) : params_(params) {}

ContentionVerdict
CCHunter::analyzeContention(const std::vector<Histogram>& quanta) const
{
    std::vector<const Histogram*> view;
    view.reserve(quanta.size());
    for (const Histogram& h : quanta)
        view.push_back(&h);
    return analyzeContention(view, nullptr);
}

ContentionVerdict
CCHunter::analyzeContention(const std::vector<const Histogram*>& quanta,
                            const Histogram* premerged) const
{
    ContentionVerdict out;
    if (quanta.empty())
        return out;

    BurstDetector detector(params_.clustering.burst);

    out.perQuantum.reserve(quanta.size());
    for (const Histogram* h : quanta) {
        out.perQuantum.push_back(detector.analyze(*h));
        if (out.perQuantum.back().significant)
            ++out.significantQuanta;
    }

    if (premerged) {
        // The incrementally maintained merged histogram accumulates
        // saturation flags from every quantum it ever absorbed; the
        // fit must only exclude bins saturated within the *current*
        // window, so rebuild the mask from the window when saturation
        // is in play.  Clean windows take the zero-copy path.
        bool saturation = premerged->saturatedBins() != 0;
        for (const Histogram* h : quanta) {
            if (saturation)
                break;
            saturation = h->saturatedBins() != 0;
        }
        if (saturation) {
            Histogram merged = *premerged;
            merged.clearSaturation();
            for (const Histogram* h : quanta)
                for (std::size_t b = 0; b < h->numBins(); ++b)
                    if (h->binSaturated(b))
                        merged.markSaturated(b);
            out.combined = detector.analyze(merged);
        } else {
            out.combined = detector.analyze(*premerged);
        }
    } else {
        Histogram merged(quanta.front()->numBins());
        for (const Histogram* h : quanta)
            merged.merge(*h);
        out.combined = detector.analyze(merged);
    }

    PatternClusteringAnalyzer clusterer(params_.clustering);
    out.recurrence = clusterer.analyze(quanta);

    // A channel is flagged when significant bursts exist and recur.
    // With a single quantum of data, the per-quantum significance alone
    // decides (there is no recurrence to establish yet).
    if (quanta.size() == 1) {
        out.detected = out.combined.significant;
    } else {
        out.detected = out.recurrence.recurrent;
    }
    return out;
}

OscillationVerdict
CCHunter::analyzeOscillation(
        const std::vector<double>& label_series) const
{
    OscillationVerdict out;
    OscillationDetector detector(params_.oscillation);
    out.analysis = detector.analyze(label_series);
    out.detected = out.analysis.oscillating;
    return out;
}

OscillationVerdict
CCHunter::analyzeOscillationWindowed(
        const std::vector<double>& label_series,
        std::size_t num_windows) const
{
    if (num_windows == 0)
        fatal("analyzeOscillationWindowed: need at least one window");
    const std::size_t n = label_series.size();
    const std::size_t win = std::max<std::size_t>(1, n / num_windows);
    std::size_t windows = 0;
    while (windows < num_windows && windows * win < n)
        ++windows;
    if (windows == 0)
        return OscillationVerdict{};

    // Keep the first of the strongest windows, in window order.
    OscillationVerdict best;
    for (std::size_t w = 0; w < windows; ++w) {
        const std::size_t lo = w * win;
        const std::size_t hi = std::min(n, lo + win);
        OscillationVerdict v = analyzeOscillation(std::vector<double>(
            label_series.begin() + lo, label_series.begin() + hi));
        const bool better =
            (v.detected && !best.detected) ||
            (v.detected == best.detected &&
             v.analysis.dominantValue > best.analysis.dominantValue);
        if (better)
            best = std::move(v);
    }
    return best;
}

} // namespace cchunter
