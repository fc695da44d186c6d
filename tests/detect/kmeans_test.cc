#include <gtest/gtest.h>

#include <set>

#include "detect/kmeans.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace cchunter
{
namespace
{

std::vector<std::vector<double>>
twoBlobs(std::size_t per_blob, double separation, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> pts;
    for (std::size_t i = 0; i < per_blob; ++i)
        pts.push_back({rng.nextGaussian(0.0, 0.5),
                       rng.nextGaussian(0.0, 0.5)});
    for (std::size_t i = 0; i < per_blob; ++i)
        pts.push_back({rng.nextGaussian(separation, 0.5),
                       rng.nextGaussian(separation, 0.5)});
    return pts;
}

TEST(KMeansTest, SeparatesTwoBlobs)
{
    auto pts = twoBlobs(50, 10.0, 1);
    KMeansParams p;
    p.k = 2;
    auto r = kmeans(pts, p);
    ASSERT_EQ(r.centroids.size(), 2u);
    // All points in the first half share a cluster; second half the other.
    const std::size_t c0 = r.assignments[0];
    for (std::size_t i = 0; i < 50; ++i)
        EXPECT_EQ(r.assignments[i], c0);
    for (std::size_t i = 50; i < 100; ++i)
        EXPECT_NE(r.assignments[i], c0);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters)
{
    auto pts = twoBlobs(40, 6.0, 2);
    KMeansParams p1, p4;
    p1.k = 1;
    p4.k = 4;
    const auto r1 = kmeans(pts, p1);
    const auto r4 = kmeans(pts, p4);
    EXPECT_LT(r4.inertia, r1.inertia);
}

TEST(KMeansTest, ClusterSizesSumToN)
{
    auto pts = twoBlobs(30, 5.0, 3);
    KMeansParams p;
    p.k = 3;
    auto r = kmeans(pts, p);
    std::size_t total = 0;
    for (auto s : r.clusterSizes)
        total += s;
    EXPECT_EQ(total, pts.size());
}

TEST(KMeansTest, KLargerThanPointsClamped)
{
    std::vector<std::vector<double>> pts{{0.0}, {1.0}};
    KMeansParams p;
    p.k = 10;
    auto r = kmeans(pts, p);
    EXPECT_LE(r.centroids.size(), 2u);
}

TEST(KMeansTest, EmptyInputReturnsEmptyResult)
{
    KMeansParams p;
    auto r = kmeans({}, p);
    EXPECT_TRUE(r.centroids.empty());
    EXPECT_TRUE(r.assignments.empty());
}

TEST(KMeansTest, IdenticalPointsSingleEffectiveCluster)
{
    std::vector<std::vector<double>> pts(20, {3.0, 3.0});
    KMeansParams p;
    p.k = 3;
    auto r = kmeans(pts, p);
    EXPECT_DOUBLE_EQ(r.inertia, 0.0);
}

TEST(KMeansTest, DeterministicForSeed)
{
    auto pts = twoBlobs(25, 8.0, 4);
    KMeansParams p;
    p.k = 2;
    p.seed = 77;
    auto a = kmeans(pts, p);
    auto b = kmeans(pts, p);
    EXPECT_EQ(a.assignments, b.assignments);
}

TEST(KMeansTest, MismatchedDimensionsThrow)
{
    std::vector<std::vector<double>> pts{{1.0, 2.0}, {1.0}};
    KMeansParams p;
    EXPECT_ANY_THROW(kmeans(pts, p));
}

TEST(KMeansAutoTest, PicksTwoForTwoBlobs)
{
    auto pts = twoBlobs(40, 12.0, 5);
    auto r = kmeansAuto(pts, 6, 9);
    EXPECT_EQ(r.centroids.size(), 2u);
}

TEST(KMeansAutoTest, SinglePointFallsBack)
{
    std::vector<std::vector<double>> pts{{1.0, 1.0}};
    auto r = kmeansAuto(pts, 6);
    EXPECT_EQ(r.centroids.size(), 1u);
    EXPECT_EQ(r.assignments[0], 0u);
}

TEST(KMeansAutoTest, AllIdenticalFallsBackToOne)
{
    std::vector<std::vector<double>> pts(10, {2.0});
    auto r = kmeansAuto(pts, 6);
    EXPECT_EQ(r.centroids.size(), 1u);
}

TEST(KMeansTest, EarlyExitConvergesBeforeIterationCap)
{
    auto pts = twoBlobs(50, 20.0, 8);
    KMeansParams p;
    p.k = 2;
    p.maxIterations = 64;
    auto r = kmeans(pts, p);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(r.iterations, p.maxIterations);
}

TEST(KMeansTest, RestartsNeverWorsenInertia)
{
    auto pts = twoBlobs(60, 4.0, 9);
    KMeansParams one;
    one.k = 4;
    one.seed = 5;
    KMeansParams many = one;
    many.restarts = 8;
    const auto single = kmeans(pts, one);
    const auto multi = kmeans(pts, many);
    // Restart 0 replays the single run, so the best of 8 restarts can
    // only match or beat it.
    EXPECT_LE(multi.inertia, single.inertia);
}

TEST(KMeansTest, SingleRestartUnchangedByRestartsField)
{
    // restarts = 1 must reproduce the historical single-run behaviour.
    auto pts = twoBlobs(30, 6.0, 10);
    KMeansParams p;
    p.k = 3;
    p.seed = 21;
    KMeansParams q = p;
    q.restarts = 1;
    const auto a = kmeans(pts, p);
    const auto b = kmeans(pts, q);
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(SilhouetteTest, WellSeparatedBlobsScoreHigh)
{
    auto pts = twoBlobs(30, 20.0, 6);
    KMeansParams p;
    p.k = 2;
    auto r = kmeans(pts, p);
    EXPECT_GT(silhouetteScore(pts, r), 0.8);
}

TEST(SilhouetteTest, SingleClusterScoresZero)
{
    auto pts = twoBlobs(10, 2.0, 7);
    KMeansParams p;
    p.k = 1;
    auto r = kmeans(pts, p);
    EXPECT_DOUBLE_EQ(silhouetteScore(pts, r), 0.0);
}

TEST(SquaredDistanceTest, Basics)
{
    EXPECT_DOUBLE_EQ(squaredDistance({0.0, 0.0}, {3.0, 4.0}), 25.0);
    EXPECT_ANY_THROW(squaredDistance({1.0}, {1.0, 2.0}));
}

TEST(KMeansSimdTest, ClusteringBitIdenticalAcrossBackends)
{
    // The distance kernel pins one reduction tree in both backends, so
    // the whole clustering — seeding, assignment sweeps, inertia and
    // silhouette — must not depend on the SIMD toggle.
    const bool saved = simdEnabled();
    auto pts = twoBlobs(60, 4.0, 21);
    // Odd dimensionality exercises the kernel's tail handling.
    for (auto& p : pts)
        p.push_back(p[0] - p[1]);

    setSimdEnabled(true);
    const auto vec = kmeansAuto(pts, 5, 22);
    const double vecSilhouette = silhouetteScore(pts, vec);
    setSimdEnabled(false);
    const auto scalar = kmeansAuto(pts, 5, 22);
    const double scalarSilhouette = silhouetteScore(pts, scalar);
    setSimdEnabled(saved);

    EXPECT_EQ(vec.assignments, scalar.assignments);
    EXPECT_EQ(vec.centroids, scalar.centroids);
    EXPECT_EQ(vec.inertia, scalar.inertia);
    EXPECT_EQ(vecSilhouette, scalarSilhouette);
}

} // namespace
} // namespace cchunter
