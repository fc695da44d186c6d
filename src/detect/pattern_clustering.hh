/**
 * @file
 * Pattern clustering: recurrence analysis of bursty density histograms
 * across OS time quanta (paper section IV-B, step five).
 *
 * The observation window is limited to 512 OS time quanta (51.2 s at a
 * 0.1 s quantum).  Each quantum's density histogram is discretized into
 * a symbol string, similar strings are aggregated with k-means, and the
 * burst-significant clusters reveal how often burst patterns recur —
 * regardless of burst intervals, so low-bandwidth and irregular channels
 * are still caught.
 */

#ifndef CCHUNTER_DETECT_PATTERN_CLUSTERING_HH
#define CCHUNTER_DETECT_PATTERN_CLUSTERING_HH

#include <cstdint>
#include <vector>

#include "detect/burst_detector.hh"
#include "detect/discretizer.hh"
#include "detect/kmeans.hh"
#include "util/histogram.hh"

namespace cchunter
{

/** Parameters for recurrence analysis. */
struct PatternClusteringParams
{
    /** Maximum quanta considered per analysis window (paper: 512). */
    std::size_t windowQuanta = 512;

    /** Upper bound for the auto-selected cluster count. */
    std::size_t maxClusters = 6;

    /**
     * Minimum fraction of quanta in burst-significant clusters for the
     * pattern to count as recurrent.  The paper detects channels
     * "regardless of burst intervals" — a 0.1 bps channel signals in
     * only ~2 of 512 quanta — so the default imposes no floor beyond
     * minRecurrentQuanta.
     */
    double minRecurrentFraction = 0.0;

    /** Minimum absolute number of bursty quanta. */
    std::size_t minRecurrentQuanta = 2;

    BurstDetectorParams burst;    //!< burst significance thresholds
    DiscretizerParams discretizer; //!< string alphabet
    std::uint64_t seed = 42;       //!< clustering seed

    /**
     * Feature-dimension reduction before k-means: keep only the
     * feature dimensions (histogram bins) whose discretized values
     * actually vary across the window, up to this many, ranked by
     * variance.  The paper reports this optimisation cuts the
     * worst-case clustering time from 0.25 s to 0.02 s.  0 disables
     * reduction (cluster on all 128 bins).
     */
    std::size_t maxFeatureDims = 16;

    /** Independent k-means++ restarts per candidate cluster count
     *  (see KMeansParams::restarts). */
    unsigned kmeansRestarts = 1;
};

/** Outcome of recurrence analysis over a window of quanta. */
struct PatternClusteringResult
{
    /** The clustering over per-quantum discretized histograms. */
    KMeansResult clustering;

    /** Discretized string per quantum (diagnostic). */
    std::vector<std::string> strings;

    /** Histogram bins selected as clustering features (empty when
     *  reduction is disabled). */
    std::vector<std::size_t> featureDims;

    /** Burst analysis of each cluster's merged histogram. */
    std::vector<BurstAnalysis> clusterAnalyses;

    /** Whether each cluster is burst-significant. */
    std::vector<bool> clusterBursty;

    /** Number of quanta assigned to burst-significant clusters. */
    std::size_t burstyQuanta = 0;

    /** burstyQuanta / total quanta. */
    double burstyFraction = 0.0;

    /** Highest likelihood ratio among bursty clusters. */
    double maxLikelihoodRatio = 0.0;

    /** Final verdict: burst patterns recur across the window. */
    bool recurrent = false;

    /**
     * Quanta that land in clusters significant at a different
     * likelihood cut-off, recomputed from the stored per-cluster
     * analyses (no re-clustering).
     */
    std::size_t burstyQuantaAt(double likelihood_threshold,
                               const BurstDetectorParams& burst = {})
        const;

    /**
     * Re-evaluate the recurrence verdict at a different likelihood
     * cut-off.  `recurrentAt(params.burst.likelihoodThreshold, params)`
     * equals `recurrent` for the params the analysis ran under; ROC
     * sweeps call this across a threshold grid.
     */
    bool recurrentAt(double likelihood_threshold,
                     const PatternClusteringParams& params = {}) const;
};

/**
 * Clusters per-quantum event-density histograms and decides whether
 * significant burst patterns recur.
 */
class PatternClusteringAnalyzer
{
  public:
    explicit PatternClusteringAnalyzer(PatternClusteringParams params = {});

    /**
     * Analyse one window of per-quantum histograms.  Only the most
     * recent windowQuanta histograms are considered.
     */
    PatternClusteringResult analyze(
        const std::vector<Histogram>& quanta) const;

    /**
     * Pointer-view overload: analyse a window referenced in place.
     * The streaming daemon keeps its quanta in a ring buffer and hands
     * the analyzer a view instead of materialising a fresh vector of
     * histograms each pass.
     */
    PatternClusteringResult analyze(
        const std::vector<const Histogram*>& quanta) const;

    const PatternClusteringParams& params() const { return params_; }

  private:
    PatternClusteringParams params_;
};

} // namespace cchunter

#endif // CCHUNTER_DETECT_PATTERN_CLUSTERING_HH
