/**
 * @file
 * k-means clustering over dense feature vectors
 * (paper section IV-B, step five, part two).
 */

#ifndef CCHUNTER_DETECT_KMEANS_HH
#define CCHUNTER_DETECT_KMEANS_HH

#include <cstdint>
#include <vector>

#include "util/rng.hh"

namespace cchunter
{

/** Result of one k-means run. */
struct KMeansResult
{
    /** Cluster centroid per cluster. */
    std::vector<std::vector<double>> centroids;

    /** Cluster index assigned to each input point. */
    std::vector<std::size_t> assignments;

    /** Points per cluster. */
    std::vector<std::size_t> clusterSizes;

    /** Total within-cluster sum of squared distances. */
    double inertia = 0.0;

    /** Iterations executed before convergence (or the iteration cap). */
    unsigned iterations = 0;

    /** Assignments went stable before the iteration cap (early exit). */
    bool converged = false;
};

/** Parameters for k-means. */
struct KMeansParams
{
    std::size_t k = 4;           //!< number of clusters
    unsigned maxIterations = 64; //!< convergence cap
    std::uint64_t seed = 42;     //!< k-means++ seeding RNG

    /**
     * Independent k-means++ restarts; restart r seeds its own
     * Rng(seed + r) and the run with the lowest inertia wins (ties
     * break towards the lowest r).
     */
    unsigned restarts = 1;
};

/**
 * Run k-means with k-means++ initialisation on row-major points.
 * Empty clusters are re-seeded from the farthest point.  Iteration
 * stops early once assignments are stable.
 */
KMeansResult kmeans(const std::vector<std::vector<double>>& points,
                    const KMeansParams& params);

/**
 * Select a cluster count in [2, max_k] by maximising the mean silhouette
 * score, and return the corresponding clustering.  Falls back to k = 1
 * when there are fewer than two distinct points.
 */
KMeansResult kmeansAuto(const std::vector<std::vector<double>>& points,
                        std::size_t max_k, std::uint64_t seed = 42,
                        unsigned restarts = 1);

/** Mean silhouette score of a clustering in [-1, 1]. */
double silhouetteScore(const std::vector<std::vector<double>>& points,
                       const KMeansResult& result);

/** Squared Euclidean distance between two equal-length vectors. */
double squaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b);

} // namespace cchunter

#endif // CCHUNTER_DETECT_KMEANS_HH
