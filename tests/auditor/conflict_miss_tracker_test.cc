#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "auditor/conflict_miss_tracker.hh"
#include "auditor/lru_stack_tracker.hh"
#include "mem/cache.hh"
#include "reference/bloom_filter.hh"
#include "util/rng.hh"

namespace cchunter
{
namespace
{

/** 8 sets x 2 ways = 16 blocks. */
CacheGeometry
tinyGeom()
{
    return CacheGeometry{1024, 2, 64};
}

TEST(ConflictMissTrackerTest, DefaultThresholdIsQuarterCapacity)
{
    ConflictMissTracker t(4096);
    EXPECT_EQ(t.threshold(), 1024u);
}

TEST(ConflictMissTrackerTest, PrematureEvictionIsConflictMiss)
{
    Cache cache("t", tinyGeom());
    ConflictMissTracker tracker(cache.geometry().numBlocks());
    cache.setMonitor(&tracker);
    std::vector<ConflictMissEvent> events;
    tracker.addListener([&](const ConflictMissEvent& e) {
        events.push_back(e);
    });

    // Three lines to set 0 (stride = 8 sets * 64 B = 512 B): C evicts A
    // while the cache is nearly empty -> refetching A is a conflict
    // miss.
    cache.access(0x0000, 1, 0);
    cache.access(0x0200, 2, 1);
    cache.access(0x0400, 3, 2); // evicts A (premature)
    EXPECT_EQ(tracker.conflictMisses(), 0u);
    cache.access(0x0000, 1, 3); // conflict miss, evicts B
    EXPECT_EQ(tracker.conflictMisses(), 1u);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].replacer, 1);
    EXPECT_EQ(events[0].victim, 2); // B's owner
    EXPECT_EQ(events[0].time, 3u);
}

TEST(ConflictMissTrackerTest, ColdMissesAreNotConflicts)
{
    Cache cache("t", tinyGeom());
    ConflictMissTracker tracker(cache.geometry().numBlocks());
    cache.setMonitor(&tracker);
    for (Addr a = 0; a < 16 * 64; a += 64)
        cache.access(a, 0, 0);
    EXPECT_EQ(tracker.conflictMisses(), 0u);
    EXPECT_EQ(tracker.totalMisses(), 16u);
}

TEST(ConflictMissTrackerTest, CapacityEvictionsAgeOut)
{
    // Stream far more distinct blocks than the cache holds: re-access
    // of long-gone lines must not count as conflict misses because the
    // generations have rotated them away.
    Cache cache("t", tinyGeom());
    ConflictMissTracker tracker(cache.geometry().numBlocks());
    cache.setMonitor(&tracker);
    cache.access(0x0000, 0, 0);
    // Touch 16 * 8 distinct other blocks (many generations).
    for (Addr a = 0x10000; a < 0x10000 + 128 * 64; a += 64)
        cache.access(a, 0, 1);
    const auto before = tracker.conflictMisses();
    cache.access(0x0000, 0, 2);
    EXPECT_EQ(tracker.conflictMisses(), before);
}

TEST(ConflictMissTrackerTest, GenerationsRotateAtThreshold)
{
    ConflictMissTracker t(16); // threshold = 4
    // Touch 4 distinct blocks -> one rotation.
    for (std::size_t b = 0; b < 4; ++b)
        t.onAccess(b, b * 64, 0, 0);
    EXPECT_EQ(t.rotations(), 1u);
    // Re-touching the same blocks in the *new* generation counts anew.
    for (std::size_t b = 0; b < 4; ++b)
        t.onAccess(b, b * 64, 0, 1);
    EXPECT_EQ(t.rotations(), 2u);
}

TEST(ConflictMissTrackerTest, RepeatAccessesDoNotAdvanceGeneration)
{
    ConflictMissTracker t(16);
    for (int i = 0; i < 100; ++i)
        t.onAccess(0, 0, 0, 0);
    EXPECT_EQ(t.rotations(), 0u);
}

TEST(ConflictMissTrackerTest, InvalidConfigThrows)
{
    EXPECT_ANY_THROW(ConflictMissTracker(0));
    ConflictTrackerParams p;
    p.numGenerations = 1;
    EXPECT_ANY_THROW(ConflictMissTracker(16, p));
    p.numGenerations = 9;
    EXPECT_ANY_THROW(ConflictMissTracker(16, p));
    p = ConflictTrackerParams{};
    p.bloomHashes = 0;
    EXPECT_ANY_THROW(ConflictMissTracker(16, p));
}

TEST(LruStackTrackerTest, ExactPrematureEvictionCheck)
{
    Cache cache("t", tinyGeom());
    LruStackTracker oracle(cache.geometry().numBlocks());
    cache.setMonitor(&oracle);
    cache.access(0x0000, 0, 0);
    cache.access(0x0200, 0, 1);
    cache.access(0x0400, 0, 2); // evicts 0x0000 prematurely
    EXPECT_TRUE(oracle.residentInIdealCache(0x0000));
    cache.access(0x0000, 0, 3);
    EXPECT_EQ(oracle.conflictMisses(), 1u);
}

TEST(LruStackTrackerTest, CapacityBound)
{
    LruStackTracker oracle(4);
    for (Addr a = 0; a < 8 * 64; a += 64)
        oracle.onAccess(0, a, 0, 0);
    // Only the last 4 lines remain in the ideal cache.
    EXPECT_FALSE(oracle.residentInIdealCache(0x0000));
    EXPECT_TRUE(oracle.residentInIdealCache(7 * 64));
    EXPECT_TRUE(oracle.residentInIdealCache(4 * 64));
}

/**
 * Property test: on random access streams, the practical tracker's
 * conflict-miss decisions closely follow the LRU-stack oracle.  The
 * approximation errs in both directions (generation granularity, bloom
 * false positives) but must agree on the vast majority of misses.
 */
class TrackerAgreementTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TrackerAgreementTest, PracticalApproximatesOracle)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);

    // Two independent caches with identical streams so each monitor
    // sees identical structural events.
    Cache cache_a("a", CacheGeometry{8192, 4, 64}); // 128 blocks
    Cache cache_b("b", CacheGeometry{8192, 4, 64});
    ConflictMissTracker practical(128);
    LruStackTracker oracle(128);

    // Count agreement via parallel event streams.
    std::uint64_t practical_hits = 0, oracle_hits = 0;
    practical.addListener(
        [&](const ConflictMissEvent&) { ++practical_hits; });
    oracle.addListener([&](const ConflictMissEvent&) { ++oracle_hits; });
    cache_a.setMonitor(&practical);
    cache_b.setMonitor(&oracle);

    // Zipf-ish reuse pattern over 4x capacity worth of lines.
    std::vector<Addr> pool;
    for (Addr a = 0; a < 512; ++a)
        pool.push_back(a * 64);
    for (int i = 0; i < 20000; ++i) {
        const std::size_t r = rng.nextBelow(512);
        const Addr addr = pool[(r * r) / 512]; // skew toward low lines
        const auto ctx = static_cast<ContextId>(rng.nextBelow(4));
        cache_a.access(addr, ctx, i);
        cache_b.access(addr, ctx, i);
    }

    ASSERT_GT(oracle_hits, 100u) << "stream produced too few conflicts";
    const double ratio = static_cast<double>(practical_hits) /
                         static_cast<double>(oracle_hits);
    EXPECT_GT(ratio, 0.6) << "practical tracker misses too many";
    EXPECT_LT(ratio, 1.4) << "practical tracker over-reports";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ConflictMissTrackerTest, BloomFalsePositivesNearTheoreticalBound)
{
    // The tracker's design occupancy: each generation filter holds N
    // bits and absorbs one generation's worth of distinct blocks
    // (N / numGenerations = N/4 keys) before rotating.  The measured
    // false-positive rate at that occupancy must sit within 2x of the
    // theoretical 3-hash bound (1 - e^{-kn/m})^k.
    constexpr std::size_t kBits = 4096;
    constexpr std::size_t kKeys = kBits / 4;
    BloomFilter filter(kBits, 3);
    Rng rng(1234);

    std::vector<std::uint64_t> inserted;
    inserted.reserve(kKeys);
    while (inserted.size() < kKeys) {
        const std::uint64_t key = rng.next();
        if (!filter.mayContain(key)) {
            filter.insert(key);
            inserted.push_back(key);
        }
    }

    const double theoretical =
        filter.estimatedFalsePositiveRate(kKeys);
    ASSERT_GT(theoretical, 0.0);

    std::uint64_t false_positives = 0;
    constexpr std::uint64_t kProbes = 200000;
    for (std::uint64_t i = 0; i < kProbes; ++i) {
        // Probe keys disjoint from the inserted stream: a fresh Rng
        // stream offset far beyond the insert draws.
        const std::uint64_t key = rng.next();
        false_positives += filter.mayContain(key);
    }
    const double measured =
        static_cast<double>(false_positives) /
        static_cast<double>(kProbes);
    EXPECT_LE(measured, 2.0 * theoretical)
        << "measured " << measured << " vs theoretical "
        << theoretical;
    EXPECT_GT(measured, 0.0); // kBits/4 keys: FPs must exist
}

TEST(ConflictMissTrackerTest, AliasHookForcesConflictAndCounts)
{
    // The fault-injection alias hook flips would-be clean misses into
    // conflict reports, modelling Bloom-filter aliasing; every forced
    // alias is counted for the integrity ledger.
    Cache cache("t", tinyGeom());
    ConflictMissTracker tracker(cache.geometry().numBlocks());
    cache.setMonitor(&tracker);
    tracker.setAliasHook([] { return true; });

    std::uint64_t events = 0;
    tracker.addListener([&](const ConflictMissEvent&) { ++events; });

    // A cold-miss-only stream: without the hook no conflicts at all
    // (ColdMissesAreNotConflicts above); with it, re-fetches of aged-
    // out lines alias into conflicts.
    for (Addr a = 0; a < 16 * 64; a += 64)
        cache.access(a, 0, 0);
    for (Addr a = 0; a < 16 * 64; a += 64)
        cache.access(a, 1, 1);
    EXPECT_GT(tracker.forcedAliases(), 0u);
    EXPECT_EQ(tracker.conflictMisses(), tracker.forcedAliases());
    EXPECT_EQ(events, tracker.forcedAliases());
}

/**
 * The practical tracker as one independent BloomFilter per generation:
 * the model the sliced filters of ConflictMissTracker are checked
 * against.  Generation bits, rotation and the victim-generation rule
 * are the tracker's, written out plainly.
 */
class ReferenceTracker
{
  public:
    ReferenceTracker(std::size_t num_blocks, unsigned generations,
                     std::size_t bloom_bits, unsigned hashes)
        : generations_(generations),
          threshold_(std::max<std::size_t>(1, num_blocks / generations)),
          genBits_(num_blocks, 0)
    {
        for (unsigned g = 0; g < generations; ++g)
            filters_.emplace_back(bloom_bits, hashes);
    }

    void
    onAccess(std::size_t block)
    {
        const unsigned bit = 1u << current_;
        if (genBits_[block] & bit)
            return;
        genBits_[block] |= bit;
        if (++currentCount_ < threshold_)
            return;
        current_ = (current_ + 1) % generations_;
        filters_[current_].clear();
        for (auto& bits : genBits_)
            bits &= ~(1u << current_);
        currentCount_ = 0;
        ++rotations_;
    }

    void
    onEvict(std::size_t block, Addr line)
    {
        const unsigned bits = genBits_[block];
        if (bits != 0) {
            // Youngest generation in which the block was accessed.
            for (unsigned age = 0; age < generations_; ++age) {
                const unsigned g = (current_ + generations_ - age) %
                                   generations_;
                if (bits & (1u << g)) {
                    filters_[g].insert(line);
                    break;
                }
            }
        } else {
            // Accessed before every live generation: the oldest.
            filters_[(current_ + 1) % generations_].insert(line);
        }
        genBits_[block] = 0;
    }

    /** @return true when the miss is reported as a conflict. */
    bool
    onMiss(Addr line, const BloomAliasHook& alias)
    {
        for (const BloomFilter& f : filters_)
            if (f.mayContain(line))
                return true;
        if (alias && alias()) {
            ++forcedAliases_;
            return true;
        }
        return false;
    }

    std::uint64_t rotations() const { return rotations_; }
    std::uint64_t forcedAliases() const { return forcedAliases_; }

  private:
    unsigned generations_;
    std::size_t threshold_;
    std::vector<unsigned> genBits_;
    std::vector<BloomFilter> filters_;
    unsigned current_ = 0;
    std::size_t currentCount_ = 0;
    std::uint64_t rotations_ = 0;
    std::uint64_t forcedAliases_ = 0;
};

/** One tracker configuration of the equivalence fuzz. */
struct TrackerConfig
{
    unsigned generations;
    unsigned hashes;
    std::size_t bits; //!< per generation, before rounding
};

/** Names a run by its configuration (ctest names value-parameterized
 *  tests by this). */
void
PrintTo(const TrackerConfig& c, std::ostream* os)
{
    *os << c.generations << "gen_" << c.hashes << "hash_" << c.bits
        << "bits";
}

/** Generations {2, 4, 8} x hashes {1, 3, 4} x bits {100, 4096}. */
std::vector<TrackerConfig>
trackerConfigs()
{
    std::vector<TrackerConfig> configs;
    for (unsigned generations : {2u, 4u, 8u})
        for (unsigned hashes : {1u, 3u, 4u})
            for (std::size_t bits : {100u, 4096u})
                configs.push_back({generations, hashes, bits});
    return configs;
}

class TrackerEquivalenceTest
    : public ::testing::TestWithParam<TrackerConfig>
{
};

TEST_P(TrackerEquivalenceTest, SlicedFiltersMatchPerGenerationFilters)
{
    const auto [generations, hashes, bits] = GetParam();
    constexpr std::size_t kBlocks = 64;
    ConflictTrackerParams params;
    params.numGenerations = generations;
    params.bloomHashes = hashes;
    params.bloomBitsPerGeneration = bits;
    ConflictMissTracker tracker(kBlocks, params);
    ReferenceTracker ref(kBlocks, generations, bits, hashes);

    // Both alias hooks draw from equal streams, so they agree as long
    // as they are asked on the same misses.
    Rng trackerAlias(99), refAlias(99);
    tracker.setAliasHook([&] { return trackerAlias.nextBool(0.05); });
    const BloomAliasHook refHook = [&] { return refAlias.nextBool(0.05); };
    std::vector<ConflictMissEvent> got, want;
    tracker.addListener(
        [&](const ConflictMissEvent& e) { got.push_back(e); });

    Rng rng(generations * 100 + hashes * 10 + bits);
    std::uint64_t conflicts = 0, clean = 0;
    for (Tick now = 0; now < 30000; ++now) {
        // 512 lines over 64 blocks: evicted lines come back while
        // their generation is live, and after it has rotated away.
        const Addr line = rng.nextBelow(512) * 64;
        const std::size_t block = rng.nextBelow(kBlocks);
        const auto ctx = static_cast<ContextId>(rng.nextBelow(4));
        const std::uint64_t op = rng.nextBelow(4);
        if (op < 2) {
            tracker.onAccess(block, line, ctx, now);
            ref.onAccess(block);
        } else if (op == 2) {
            tracker.onEvict(block, line, ctx, now);
            ref.onEvict(block, line);
        } else {
            const auto victim = static_cast<ContextId>(rng.nextBelow(4));
            const bool hadVictim = rng.nextBool();
            tracker.onMiss(line, ctx, victim, hadVictim, now);
            if (ref.onMiss(line, refHook)) {
                want.push_back(ConflictMissEvent{
                    now, ctx, hadVictim ? victim : invalidContext});
                ++conflicts;
            } else {
                ++clean;
            }
        }
        ASSERT_EQ(got.size(), want.size()) << "conflict flag at " << now;
        if (!want.empty()) {
            ASSERT_EQ(got.back().time, want.back().time);
            ASSERT_EQ(got.back().replacer, want.back().replacer);
            ASSERT_EQ(got.back().victim, want.back().victim);
        }
        ASSERT_EQ(tracker.rotations(), ref.rotations()) << "at " << now;
        ASSERT_EQ(tracker.forcedAliases(), ref.forcedAliases())
            << "at " << now;
    }
    EXPECT_EQ(tracker.conflictMisses(), conflicts);
    EXPECT_EQ(tracker.totalMisses(), conflicts + clean);
    // The stream must reach every outcome the comparison covers.
    EXPECT_GT(tracker.rotations(), 10u);
    EXPECT_GT(conflicts - tracker.forcedAliases(), 0u);
    EXPECT_GT(tracker.forcedAliases(), 0u);
    EXPECT_GT(clean, 0u);
}

INSTANTIATE_TEST_SUITE_P(Configs, TrackerEquivalenceTest,
                         ::testing::ValuesIn(trackerConfigs()));

} // namespace
} // namespace cchunter
