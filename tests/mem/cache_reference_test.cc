/**
 * @file
 * Property tests: the Cache model fuzz-checked against an independent
 * reference implementation (per-set recency lists with owners:
 * hits, evicted lines and their owners, back-invalidations), and the
 * HistogramBuffer fuzz-checked against the offline event-density
 * computation over random event streams.
 */

#include <gtest/gtest.h>

#include <list>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "auditor/histogram_buffer.hh"
#include "detect/event_density.hh"
#include "mem/cache.hh"
#include "util/rng.hh"

namespace cchunter
{
namespace
{

/** Straightforward per-set LRU cache model built on std::list, with
 *  the owner of every resident line. */
class ReferenceCache
{
  public:
    ReferenceCache(std::size_t sets, std::size_t ways,
                   std::size_t line)
        : sets_(sets), ways_(ways), line_(line), lru_(sets)
    {
    }

    /** Access as `ctx`; on a miss the filled set's least recently
     *  used line falls out of a full set. */
    CacheAccessResult
    access(Addr addr, ContextId ctx)
    {
        CacheAccessResult result;
        const Addr la = lineOf(addr);
        auto& list = lru_[setOf(la)];
        for (auto it = list.begin(); it != list.end(); ++it) {
            if (it->line == la) {
                list.erase(it);
                list.push_front({la, ctx});
                result.hit = true;
                return result;
            }
        }
        list.push_front({la, ctx});
        if (list.size() > ways_) {
            result.evicted = true;
            result.evictedLineAddr = list.back().line;
            result.evictedOwner = list.back().owner;
            list.pop_back();
        }
        return result;
    }

    /** @return true if the line was resident. */
    bool
    invalidate(Addr addr)
    {
        const Addr la = lineOf(addr);
        auto& list = lru_[setOf(la)];
        for (auto it = list.begin(); it != list.end(); ++it) {
            if (it->line == la) {
                list.erase(it);
                return true;
            }
        }
        return false;
    }

  private:
    struct Line
    {
        Addr line;
        ContextId owner;
    };

    Addr lineOf(Addr addr) const { return addr - addr % line_; }
    std::size_t setOf(Addr la) const { return (la / line_) % sets_; }

    std::size_t sets_, ways_, line_;
    std::vector<std::list<Line>> lru_; //!< most recently used first
};

/** One fuzz run: the stream's seed and the cache's set count. */
struct CacheFuzzCase
{
    std::uint64_t seed;
    std::size_t sets;
};

/** Names a run by its seed, plus its set count when that is not the
 *  original 32 (ctest names value-parameterized tests by this). */
void
PrintTo(const CacheFuzzCase& c, std::ostream* os)
{
    *os << c.seed;
    if (c.sets != 32)
        *os << "_" << c.sets << "sets";
}

class CacheFuzzTest : public ::testing::TestWithParam<CacheFuzzCase>
{
};

TEST_P(CacheFuzzTest, MatchesReferenceOnRandomStreams)
{
    const CacheGeometry geom{GetParam().sets * 4 * 64, 4, 64};
    Cache cache("fuzz", geom);
    ASSERT_EQ(geom.numSets(), GetParam().sets);
    ReferenceCache ref(geom.numSets(), geom.associativity,
                       geom.lineSize);
    Rng rng(GetParam().seed);
    std::uint64_t lineZeroEvictions = 0;
    for (int i = 0; i < 50000; ++i) {
        // 256 lines over 24-32 sets: plenty of conflicts.  Line 0 is
        // one of them: its tag is the valid bit alone.
        const Addr addr = rng.nextBelow(256) * 64 + rng.nextBelow(64);
        // One operation in eight is a back-invalidation, as an
        // inclusive L2 sends to its L1s on an eviction.
        if (rng.nextBelow(8) == 0) {
            ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr))
                << "invalidate diverged at op " << i << " addr "
                << addr;
            continue;
        }
        const auto ctx = static_cast<ContextId>(rng.nextBelow(2));
        const CacheAccessResult got = cache.access(addr, ctx, i);
        const CacheAccessResult want = ref.access(addr, ctx);
        ASSERT_EQ(got.hit, want.hit)
            << "divergence at op " << i << " addr " << addr;
        ASSERT_EQ(got.evicted, want.evicted) << "op " << i;
        if (want.evicted) {
            ASSERT_EQ(got.evictedLineAddr, want.evictedLineAddr)
                << "op " << i;
            ASSERT_EQ(got.evictedOwner, want.evictedOwner)
                << "op " << i;
            lineZeroEvictions += want.evictedLineAddr == 0;
        }
        ASSERT_EQ(cache.ownerOf(addr), ctx) << "op " << i;
    }
    EXPECT_GT(lineZeroEvictions, 0u)
        << "the stream never evicted line address 0";
}

// 32 sets take the mask path of Cache::setIndex, 24 the modulo path.
INSTANTIATE_TEST_SUITE_P(
    Seeds, CacheFuzzTest,
    ::testing::Values(CacheFuzzCase{11, 32}, CacheFuzzCase{22, 32},
                      CacheFuzzCase{33, 32}, CacheFuzzCase{44, 32},
                      CacheFuzzCase{55, 24}));

class HistogramBufferFuzzTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HistogramBufferFuzzTest, MatchesOfflineDensityComputation)
{
    Rng rng(GetParam());
    const Tick dt = 1 + rng.nextBelow(5000);
    const Tick span = 200000 + rng.nextBelow(300000);

    HistogramBuffer hw(dt, 0);
    EventTrain train(0, span);
    Tick now = 0;
    while (true) {
        now += 1 + static_cast<Tick>(rng.nextExponential(
                   static_cast<double>(1 + rng.nextBelow(2000))));
        if (now >= span)
            break;
        hw.recordEvent(now);
        train.addEvent(now);
    }
    // Snapshot at a multiple of dt so both sides see the same windows.
    const Tick snap = (span / dt) * dt;
    train.setWindow(0, snap);
    const Histogram hardware = hw.snapshotAndReset(snap);
    const Histogram offline =
        buildEventDensityHistogram(train, dt, 128);
    ASSERT_EQ(hardware.totalSamples(), offline.totalSamples());
    for (std::size_t b = 0; b < 128; ++b)
        ASSERT_EQ(hardware.bin(b), offline.bin(b)) << "bin " << b;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramBufferFuzzTest,
                         ::testing::Values(3, 5, 8, 13, 21, 34));

} // namespace
} // namespace cchunter
