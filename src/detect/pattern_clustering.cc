#include "detect/pattern_clustering.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cchunter
{

std::size_t
PatternClusteringResult::burstyQuantaAt(
        double likelihood_threshold,
        const BurstDetectorParams& burst) const
{
    std::size_t quanta = 0;
    for (std::size_t c = 0; c < clusterAnalyses.size(); ++c) {
        if (clusterAnalyses[c].significantAt(likelihood_threshold,
                                             burst))
            quanta += clustering.clusterSizes[c];
    }
    return quanta;
}

bool
PatternClusteringResult::recurrentAt(
        double likelihood_threshold,
        const PatternClusteringParams& params) const
{
    const std::size_t total = clustering.assignments.size();
    if (total == 0)
        return false;
    const std::size_t bursty =
        burstyQuantaAt(likelihood_threshold, params.burst);
    const double fraction =
        static_cast<double>(bursty) / static_cast<double>(total);
    return bursty >= params.minRecurrentQuanta &&
           fraction >= params.minRecurrentFraction;
}

PatternClusteringAnalyzer::PatternClusteringAnalyzer(
        PatternClusteringParams params)
    : params_(params)
{
    if (params_.windowQuanta == 0)
        fatal("PatternClusteringAnalyzer: windowQuanta must be positive");
    if (params_.maxClusters < 2)
        fatal("PatternClusteringAnalyzer: need at least 2 max clusters");
}

PatternClusteringResult
PatternClusteringAnalyzer::analyze(
        const std::vector<Histogram>& quanta) const
{
    std::vector<const Histogram*> view;
    view.reserve(quanta.size());
    for (const Histogram& h : quanta)
        view.push_back(&h);
    return analyze(view);
}

PatternClusteringResult
PatternClusteringAnalyzer::analyze(
        const std::vector<const Histogram*>& quanta) const
{
    PatternClusteringResult out;
    if (quanta.empty())
        return out;

    // Limit the window to the most recent quanta so that long idle
    // periods do not dilute the significance of the histograms involved
    // in covert communication.
    const std::size_t first =
        quanta.size() > params_.windowQuanta ?
        quanta.size() - params_.windowQuanta : 0;
    std::vector<const Histogram*> window(
        quanta.begin() + static_cast<std::ptrdiff_t>(first),
        quanta.end());

    // Step 1: discretize histograms into strings / feature vectors.
    HistogramDiscretizer disc(params_.discretizer);
    std::vector<std::vector<double>> features;
    features.reserve(window.size());
    out.strings.reserve(window.size());
    for (const Histogram* h : window) {
        out.strings.push_back(disc.toString(*h));
        features.push_back(disc.toFeatures(*h));
    }

    // Step 1b (optional): feature-dimension reduction.  Most of the
    // 128 bins never vary across quanta; clustering on the top-variance
    // bins gives the same assignments at a fraction of the cost.
    if (params_.maxFeatureDims != 0 && !features.empty() &&
        features[0].size() > params_.maxFeatureDims) {
        const std::size_t dims = features[0].size();
        std::vector<double> mean(dims, 0.0), var(dims, 0.0);
        for (const auto& f : features)
            for (std::size_t d = 0; d < dims; ++d)
                mean[d] += f[d];
        for (auto& m : mean)
            m /= static_cast<double>(features.size());
        for (const auto& f : features)
            for (std::size_t d = 0; d < dims; ++d)
                var[d] += (f[d] - mean[d]) * (f[d] - mean[d]);
        std::vector<std::size_t> order(dims);
        for (std::size_t d = 0; d < dims; ++d)
            order[d] = d;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (var[a] != var[b])
                          return var[a] > var[b];
                      return a < b;
                  });
        for (std::size_t i = 0;
             i < params_.maxFeatureDims && var[order[i]] > 0.0; ++i)
            out.featureDims.push_back(order[i]);
        std::sort(out.featureDims.begin(), out.featureDims.end());
        if (!out.featureDims.empty()) {
            std::vector<std::vector<double>> reduced;
            reduced.reserve(features.size());
            for (const auto& f : features) {
                std::vector<double> r;
                r.reserve(out.featureDims.size());
                for (std::size_t d : out.featureDims)
                    r.push_back(f[d]);
                reduced.push_back(std::move(r));
            }
            features = std::move(reduced);
        }
    }

    // Step 2: aggregate similar strings with k-means.
    out.clustering = kmeansAuto(features, params_.maxClusters,
                                params_.seed, params_.kmeansRestarts);
    const std::size_t k = out.clustering.centroids.size();
    if (k == 0)
        return out;

    // Step 3: analyse each cluster's merged histogram for bursts.
    BurstDetector detector(params_.burst);
    std::vector<Histogram> merged(
        k, Histogram(window.front()->numBins()));
    for (std::size_t i = 0; i < window.size(); ++i)
        merged[out.clustering.assignments[i]].merge(*window[i]);

    out.clusterAnalyses.reserve(k);
    out.clusterBursty.reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
        BurstAnalysis ba = detector.analyze(merged[c]);
        out.clusterBursty.push_back(ba.significant);
        if (ba.significant) {
            out.burstyQuanta += out.clustering.clusterSizes[c];
            out.maxLikelihoodRatio =
                std::max(out.maxLikelihoodRatio, ba.likelihoodRatio);
        }
        out.clusterAnalyses.push_back(std::move(ba));
    }

    out.burstyFraction =
        static_cast<double>(out.burstyQuanta) /
        static_cast<double>(window.size());
    out.recurrent =
        out.burstyQuanta >= params_.minRecurrentQuanta &&
        out.burstyFraction >= params_.minRecurrentFraction;
    return out;
}

} // namespace cchunter
