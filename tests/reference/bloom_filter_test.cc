#include <gtest/gtest.h>

#include "reference/bloom_filter.hh"
#include "util/rng.hh"

namespace cchunter
{
namespace
{

TEST(BloomFilterTest, InsertedKeysAreFound)
{
    BloomFilter bf(1024, 3);
    for (std::uint64_t k = 0; k < 100; ++k)
        bf.insert(k * 7919);
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_TRUE(bf.mayContain(k * 7919));
}

TEST(BloomFilterTest, EmptyFilterContainsNothing)
{
    BloomFilter bf(1024, 3);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(bf.mayContain(rng.next()));
}

TEST(BloomFilterTest, ClearRemovesAllKeys)
{
    BloomFilter bf(512, 3);
    for (std::uint64_t k = 1; k <= 50; ++k)
        bf.insert(k);
    EXPECT_GT(bf.popCount(), 0u);
    bf.clear();
    EXPECT_EQ(bf.popCount(), 0u);
    for (std::uint64_t k = 1; k <= 50; ++k)
        EXPECT_FALSE(bf.mayContain(k));
}

TEST(BloomFilterTest, FalsePositiveRateIsBounded)
{
    // 4 * N bits for N keys with 3 hashes (the paper's sizing:
    // 4 x #totalcacheblocks bits across generations).
    const std::size_t n = 1024;
    BloomFilter bf(4 * n, 3);
    Rng rng(2);
    for (std::size_t i = 0; i < n; ++i)
        bf.insert(rng.next());
    int fp = 0;
    const int probes = 20000;
    Rng probe_rng(3);
    for (int i = 0; i < probes; ++i)
        fp += bf.mayContain(probe_rng.next() | 0x8000000000000000ull);
    const double rate = static_cast<double>(fp) / probes;
    // Theoretical rate ~ (1 - e^{-3/4})^3 ~ 0.15; allow slack.
    EXPECT_LT(rate, 0.25);
    EXPECT_NEAR(rate, bf.estimatedFalsePositiveRate(n), 0.08);
}

TEST(BloomFilterTest, SizeRoundsUpToPowerOfTwo)
{
    BloomFilter bf(100, 3);
    EXPECT_EQ(bf.sizeBits(), 128u);
    BloomFilter bf2(64, 3);
    EXPECT_EQ(bf2.sizeBits(), 64u);
}

TEST(BloomFilterTest, InvalidConstructionThrows)
{
    EXPECT_ANY_THROW(BloomFilter(0, 3));
    EXPECT_ANY_THROW(BloomFilter(64, 0));
}

TEST(BloomFilterTest, MoreHashesLowerFalsePositives)
{
    const std::size_t n = 256;
    BloomFilter bf1(8 * n, 1);
    BloomFilter bf3(8 * n, 3);
    Rng rng(5);
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < n; ++i)
        keys.push_back(rng.next());
    for (auto k : keys) {
        bf1.insert(k);
        bf3.insert(k);
    }
    int fp1 = 0, fp3 = 0;
    Rng probe(6);
    const int probes = 30000;
    for (int i = 0; i < probes; ++i) {
        const auto k = probe.next() | 1ull << 63;
        fp1 += bf1.mayContain(k);
        fp3 += bf3.mayContain(k);
    }
    EXPECT_LT(fp3, fp1);
}

} // namespace
} // namespace cchunter
