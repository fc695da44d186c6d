/**
 * @file
 * The CC-Hunter detection facade: the software half of the framework.
 *
 * The CC-Auditor hardware (src/auditor) produces, per OS time quantum,
 * either event-density histogram snapshots (contention channels on
 * combinational hardware) or labelled conflict-miss streams (cache
 * channels).  This facade feeds those observations through the burst /
 * recurrence and oscillation analyses and renders verdicts.
 */

#ifndef CCHUNTER_DETECT_DETECTOR_HH
#define CCHUNTER_DETECT_DETECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "detect/burst_detector.hh"
#include "detect/oscillation_detector.hh"
#include "detect/pattern_clustering.hh"
#include "util/histogram.hh"

namespace cchunter
{

/** Verdict from the contention (recurrent-burst) path. */
struct ContentionVerdict
{
    /** Burst analysis of the merged (all-quanta) histogram. */
    BurstAnalysis combined;

    /** Per-quantum burst analyses. */
    std::vector<BurstAnalysis> perQuantum;

    /** Recurrence analysis over the quanta window. */
    PatternClusteringResult recurrence;

    /** Number of quanta whose own histogram was burst-significant. */
    std::size_t significantQuanta = 0;

    /** Covert timing channel likely present on this resource. */
    bool detected = false;

    /**
     * Re-evaluate the verdict at a different likelihood-ratio cut-off
     * from the stored analyses (no re-clustering, no histogram
     * re-scan).  `detectedAt(params.burst.likelihoodThreshold, params)`
     * equals `detected` for the params the analysis ran under; ROC
     * sweeps call this across a threshold grid.
     */
    bool detectedAt(double likelihood_threshold,
                    const PatternClusteringParams& params = {}) const;

    /** Human-readable one-line summary. */
    std::string summary() const;
};

/** Verdict from the oscillation (cache-channel) path. */
struct OscillationVerdict
{
    OscillationAnalysis analysis;

    /** Covert timing channel likely present on this resource. */
    bool detected = false;

    /** Re-evaluate the verdict under different oscillation thresholds
     *  from the stored correlogram (see OscillationAnalysis). */
    bool detectedAt(const OscillationParams& params) const;

    /** Human-readable one-line summary. */
    std::string summary() const;
};

/** Configuration of a full CC-Hunter software instance. */
struct CCHunterParams
{
    PatternClusteringParams clustering;
    OscillationParams oscillation;
};

/**
 * Which analysis backend renders the final verdict.  CCHunter is the
 * classic recurrent-burst / autocorrelation pipeline; Indicator2 is
 * the second-moment backend (detect/indicator2.hh) built to survive
 * evasive senders.  Both run from the same auditor observations, so a
 * scenario can score either (or both) without re-simulation.
 */
enum class DetectBackend : std::uint8_t
{
    CCHunter,
    Indicator2,
};

/** Short lower-case backend name ("cchunter", "indicator2"). */
const char* detectBackendName(DetectBackend backend);

/** Parse a backend name; fatal on an unknown one, listing the valid
 *  names. */
DetectBackend detectBackendFromName(const std::string& name);

/**
 * The decision cut-offs of both analysis paths in one plumbable
 * struct, defaulted to the paper's values: likelihood ratio >= 0.5
 * flags a contention channel (real channels score >= 0.9, benign
 * programs < 0.5), and the oscillation path keeps its published peak
 * thresholds.  Scenario harnesses carry one of these instead of
 * hard-coding 0.5, which is what lets the detection-quality subsystem
 * sweep full ROC curves through otherwise-identical runs.
 */
struct DetectionThresholds
{
    /** Likelihood-ratio cut-off of the recurrent-burst path. */
    double contentionLikelihood = 0.5;

    /** Minimum autocorrelogram peak of the oscillation path. */
    double oscillationPeak = 0.35;

    /** Single-strong-peak cut-off of the oscillation path. */
    double oscillationStrongPeak = 0.6;

    /** Backend whose decision becomes the unit verdict. */
    DetectBackend backend = DetectBackend::CCHunter;

    /** Score cut-off of the indicator2 backend (both paths). */
    double indicator2Threshold = 0.5;

    /** Fatal when any threshold lies outside [0, 1]. */
    void validate() const;

    /** Copy of `base` with every cut-off replaced by this struct's. */
    CCHunterParams apply(CCHunterParams base = {}) const;
};

/**
 * The CC-Hunter analysis engine.
 *
 * analyzeContention() consumes per-quantum event-density histograms for
 * one monitored combinational resource; analyzeOscillation() consumes
 * the labelled conflict-miss series for a monitored cache.
 */
class CCHunter
{
  public:
    explicit CCHunter(CCHunterParams params = {});

    /** Run the recurrent-burst pipeline over a window of quanta. */
    ContentionVerdict analyzeContention(
        const std::vector<Histogram>& quanta) const;

    /**
     * Pointer-view overload for streaming callers whose window lives
     * in a ring buffer.  When @p premerged is given it is taken as the
     * already-maintained bin-wise sum of the window (the daemon keeps
     * it incrementally, add-on-drain / subtract-on-evict) and the
     * O(window) re-merge is skipped; passing nullptr recomputes the
     * merged histogram from scratch (the legacy path, kept for
     * equivalence checks).
     */
    ContentionVerdict analyzeContention(
        const std::vector<const Histogram*>& quanta,
        const Histogram* premerged = nullptr) const;

    /** Run the oscillation pipeline over a labelled event series. */
    OscillationVerdict analyzeOscillation(
        const std::vector<double>& label_series) const;

    /**
     * Run the oscillation pipeline over sub-windows of the series and
     * report the strongest verdict.  Fine-grained windows improve the
     * detection probability of low-bandwidth channels (paper VI-A).
     *
     * @param label_series Full labelled event series.
     * @param num_windows Number of equal sub-windows to analyse.
     */
    OscillationVerdict analyzeOscillationWindowed(
        const std::vector<double>& label_series,
        std::size_t num_windows) const;

    const CCHunterParams& params() const { return params_; }

  private:
    CCHunterParams params_;
};

} // namespace cchunter

#endif // CCHUNTER_DETECT_DETECTOR_HH
