/**
 * @file
 * Property tests: the Cache model fuzz-checked against an independent
 * reference implementation (per-set recency lists with owners and
 * ways: hits, evicted lines and their owners, the block each access
 * lands in, back-invalidations and flushes), and the HistogramBuffer
 * fuzz-checked against the offline event-density computation over
 * random event streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
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
 *  the owner and way of every resident line. */
class ReferenceCache
{
  public:
    ReferenceCache(std::size_t sets, std::size_t ways,
                   std::size_t line)
        : sets_(sets), ways_(ways), line_(line), lru_(sets)
    {
    }

    /** Access as `ctx`; on a miss the line fills the set's lowest free
     *  way, or the least recently used line of a full set falls out
     *  and the line takes its way.  `*block` is the line's block index
     *  (set * ways + way) after the access. */
    CacheAccessResult
    access(Addr addr, ContextId ctx, std::size_t* block)
    {
        CacheAccessResult result;
        const Addr la = lineOf(addr);
        const std::size_t set = setOf(la);
        auto& list = lru_[set];
        for (auto it = list.begin(); it != list.end(); ++it) {
            if (it->line == la) {
                const std::size_t way = it->way;
                list.erase(it);
                list.push_front({la, ctx, way});
                result.hit = true;
                *block = set * ways_ + way;
                return result;
            }
        }
        std::size_t way = 0;
        if (list.size() == ways_) {
            result.evicted = true;
            result.evictedLineAddr = list.back().line;
            result.evictedOwner = list.back().owner;
            way = list.back().way;
            list.pop_back();
        } else {
            while (std::any_of(list.begin(), list.end(),
                               [&](const Line& l) { return l.way == way; }))
                ++way;
        }
        list.push_front({la, ctx, way});
        *block = set * ways_ + way;
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

    void
    flush()
    {
        for (auto& list : lru_)
            list.clear();
    }

  private:
    struct Line
    {
        Addr line;
        ContextId owner;
        std::size_t way;
    };

    Addr lineOf(Addr addr) const { return addr - addr % line_; }
    std::size_t setOf(Addr la) const { return (la / line_) % sets_; }

    std::size_t sets_, ways_, line_;
    std::vector<std::list<Line>> lru_; //!< most recently used first
};

/** Records the block index of the latest access. */
class LastBlockMonitor : public CacheMonitor
{
  public:
    void
    onAccess(std::size_t block_idx, Addr, ContextId, Tick) override
    {
        last = block_idx;
    }
    void onEvict(std::size_t, Addr, ContextId, Tick) override {}
    void onMiss(Addr, ContextId, ContextId, bool, Tick) override {}

    std::size_t last = 0;
};

/** One fuzz run: the stream's seed and the cache's set count and
 *  associativity. */
struct CacheFuzzCase
{
    std::uint64_t seed;
    std::size_t sets;
    std::size_t ways = 4;
};

/** Names a run by its seed, plus its set count and associativity when
 *  they are not the original 32 and 4 (ctest names value-parameterized
 *  tests by this). */
void
PrintTo(const CacheFuzzCase& c, std::ostream* os)
{
    *os << c.seed;
    if (c.sets != 32)
        *os << "_" << c.sets << "sets";
    if (c.ways != 4)
        *os << "_" << c.ways << "way";
}

class CacheFuzzTest : public ::testing::TestWithParam<CacheFuzzCase>
{
};

TEST_P(CacheFuzzTest, MatchesReferenceOnRandomStreams)
{
    const CacheFuzzCase& c = GetParam();
    const CacheGeometry geom{c.sets * c.ways * 64, c.ways, 64};
    Cache cache("fuzz", geom);
    ASSERT_EQ(geom.numSets(), c.sets);
    LastBlockMonitor monitor;
    cache.setMonitor(&monitor);
    ReferenceCache ref(geom.numSets(), geom.associativity,
                       geom.lineSize);
    // At least twice as many lines as blocks: plenty of conflicts.
    const std::size_t lines = std::max<std::size_t>(256, 2 * c.sets * c.ways);
    Rng rng(c.seed);
    std::uint64_t lineZeroEvictions = 0;
    for (int i = 0; i < 50000; ++i) {
        // Line 0 is one of the lines: its tag is the valid bit alone.
        const Addr addr = rng.nextBelow(lines) * 64 + rng.nextBelow(64);
        // A rare flush empties every set; refills then choose among
        // several invalid ways.
        if (rng.nextBelow(5000) == 0) {
            cache.flush();
            ref.flush();
            continue;
        }
        // One operation in eight is a back-invalidation, as an
        // inclusive L2 sends to its L1s on an eviction.
        if (rng.nextBelow(8) == 0) {
            ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr))
                << "invalidate diverged at op " << i << " addr "
                << addr;
            continue;
        }
        const auto ctx = static_cast<ContextId>(rng.nextBelow(2));
        std::size_t block = 0;
        const CacheAccessResult got = cache.access(addr, ctx, i);
        const CacheAccessResult want = ref.access(addr, ctx, &block);
        ASSERT_EQ(got.hit, want.hit)
            << "divergence at op " << i << " addr " << addr;
        ASSERT_EQ(monitor.last, block) << "victim way at op " << i;
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
// 1 way is the cache tenants' L2, 8 ways the machines' L1.
INSTANTIATE_TEST_SUITE_P(
    Seeds, CacheFuzzTest,
    ::testing::Values(CacheFuzzCase{11, 32}, CacheFuzzCase{22, 32},
                      CacheFuzzCase{33, 32}, CacheFuzzCase{44, 32},
                      CacheFuzzCase{55, 24}, CacheFuzzCase{66, 32, 1},
                      CacheFuzzCase{77, 24, 1}, CacheFuzzCase{88, 32, 8},
                      CacheFuzzCase{99, 24, 8}));

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
