#include "detect/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "util/logging.hh"
#include "util/simd.hh"

namespace cchunter
{

double
squaredDistance(const std::vector<double>& a, const std::vector<double>& b)
{
    if (a.size() != b.size())
        fatal("squaredDistance: dimension mismatch");
    // The shim's fixed 4-lane reduction tree: identical result on the
    // vector and scalar backends (this feeds every assignment sweep,
    // the k-means++ seeding and silhouetteScore).
    return simd::squaredDistance(a.data(), b.data(), a.size());
}

namespace
{

/** k-means++ seeding. */
std::vector<std::vector<double>>
seedCentroids(const std::vector<std::vector<double>>& points,
              std::size_t k, Rng& rng)
{
    std::vector<std::vector<double>> centroids;
    centroids.reserve(k);
    centroids.push_back(points[rng.nextBelow(points.size())]);
    std::vector<double> dist2(points.size(),
                              std::numeric_limits<double>::infinity());
    while (centroids.size() < k) {
        double total = 0.0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            dist2[i] = std::min(
                dist2[i], squaredDistance(points[i], centroids.back()));
            total += dist2[i];
        }
        if (total <= 0.0) {
            // All remaining points coincide with a centroid; duplicate.
            centroids.push_back(points[rng.nextBelow(points.size())]);
            continue;
        }
        double target = rng.nextDouble() * total;
        std::size_t chosen = points.size() - 1;
        for (std::size_t i = 0; i < points.size(); ++i) {
            target -= dist2[i];
            if (target <= 0.0) {
                chosen = i;
                break;
            }
        }
        centroids.push_back(points[chosen]);
    }
    return centroids;
}

/** One complete k-means run from a single seed. */
KMeansResult
runFromSeed(const std::vector<std::vector<double>>& points,
            std::size_t k, std::size_t dim, unsigned max_iterations,
            std::uint64_t seed)
{
    KMeansResult result;
    Rng rng(seed);
    result.centroids = seedCentroids(points, k, rng);
    result.assignments.assign(points.size(), 0);

    for (unsigned iter = 0; iter < max_iterations; ++iter) {
        result.iterations = iter + 1;
        bool changed = false;
        // Assignment step.
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::size_t best = 0;
            double best_d = std::numeric_limits<double>::infinity();
            for (std::size_t c = 0; c < k; ++c) {
                const double d =
                    squaredDistance(points[i], result.centroids[c]);
                if (d < best_d) {
                    best_d = d;
                    best = c;
                }
            }
            if (result.assignments[i] != best) {
                result.assignments[i] = best;
                changed = true;
            }
        }
        // Update step.
        std::vector<std::vector<double>> sums(
            k, std::vector<double>(dim, 0.0));
        std::vector<std::size_t> counts(k, 0);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const std::size_t c = result.assignments[i];
            ++counts[c];
            for (std::size_t d = 0; d < dim; ++d)
                sums[c][d] += points[i][d];
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0) {
                // Re-seed an empty cluster from the farthest point.
                std::size_t far = 0;
                double far_d = -1.0;
                for (std::size_t i = 0; i < points.size(); ++i) {
                    const double d = squaredDistance(
                        points[i],
                        result.centroids[result.assignments[i]]);
                    if (d > far_d) {
                        far_d = d;
                        far = i;
                    }
                }
                result.centroids[c] = points[far];
                changed = true;
                continue;
            }
            for (std::size_t d = 0; d < dim; ++d)
                result.centroids[c][d] =
                    sums[c][d] / static_cast<double>(counts[c]);
        }
        if (!changed) {
            result.converged = true;
            break;
        }
    }

    result.clusterSizes.assign(k, 0);
    result.inertia = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::size_t c = result.assignments[i];
        ++result.clusterSizes[c];
        result.inertia +=
            squaredDistance(points[i], result.centroids[c]);
    }
    return result;
}

} // namespace

KMeansResult
kmeans(const std::vector<std::vector<double>>& points,
       const KMeansParams& params)
{
    if (points.empty())
        return KMeansResult{};
    const std::size_t dim = points[0].size();
    for (const auto& p : points)
        if (p.size() != dim)
            fatal("kmeans: inconsistent point dimensions");
    const std::size_t k = std::min(params.k, points.size());
    if (k == 0)
        fatal("kmeans: k must be positive");

    // Lowest inertia wins; ties break towards the earliest restart.
    const unsigned restarts = std::max(1u, params.restarts);
    KMeansResult best = runFromSeed(points, k, dim, params.maxIterations,
                                    params.seed);
    for (unsigned r = 1; r < restarts; ++r) {
        KMeansResult run = runFromSeed(points, k, dim,
                                       params.maxIterations,
                                       params.seed + r);
        if (run.inertia < best.inertia)
            best = std::move(run);
    }
    return best;
}

double
silhouetteScore(const std::vector<std::vector<double>>& points,
                const KMeansResult& result)
{
    const std::size_t n = points.size();
    const std::size_t k = result.centroids.size();
    if (n < 2 || k < 2)
        return 0.0;

    double total = 0.0;
    std::size_t counted = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t ci = result.assignments[i];
        if (result.clusterSizes[ci] < 2)
            continue; // silhouette undefined for singleton's member
        double a = 0.0;
        std::vector<double> other(k, 0.0);
        std::vector<std::size_t> other_n(k, 0);
        for (std::size_t j = 0; j < n; ++j) {
            if (j == i)
                continue;
            const double d =
                std::sqrt(squaredDistance(points[i], points[j]));
            if (result.assignments[j] == ci) {
                a += d;
            } else {
                other[result.assignments[j]] += d;
                ++other_n[result.assignments[j]];
            }
        }
        a /= static_cast<double>(result.clusterSizes[ci] - 1);
        double b = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < k; ++c) {
            if (c == ci || other_n[c] == 0)
                continue;
            b = std::min(b, other[c] / static_cast<double>(other_n[c]));
        }
        if (!std::isfinite(b))
            continue;
        const double s = (b - a) / std::max(a, b);
        if (std::max(a, b) > 0.0) {
            total += s;
            ++counted;
        }
    }
    return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

KMeansResult
kmeansAuto(const std::vector<std::vector<double>>& points,
           std::size_t max_k, std::uint64_t seed, unsigned restarts)
{
    KMeansResult best;
    if (points.empty())
        return best;

    // Count distinct points to bound the useful k.
    std::set<std::vector<double>> distinct(points.begin(), points.end());
    const std::size_t limit = std::min(max_k, distinct.size());
    if (limit < 2) {
        KMeansParams p;
        p.k = 1;
        p.seed = seed;
        p.restarts = restarts;
        return kmeans(points, p);
    }

    // Scan k in ascending order; the first best silhouette wins.
    double best_score = -2.0;
    for (std::size_t k = 2; k <= limit; ++k) {
        KMeansParams p;
        p.k = k;
        p.seed = seed + k;
        p.restarts = restarts;
        KMeansResult run = kmeans(points, p);
        const double score = silhouetteScore(points, run);
        if (score > best_score) {
            best_score = score;
            best = std::move(run);
        }
    }
    return best;
}

} // namespace cchunter
