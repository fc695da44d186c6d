#include <gtest/gtest.h>

#include <list>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "mem/mem_system.hh"
#include "mem/tlb.hh"
#include "util/rng.hh"

using namespace cchunter;

namespace
{

TlbParams
tinyTlb()
{
    TlbParams params;
    params.enabled = true;
    params.entries = 8;
    params.associativity = 2; // 4 sets
    params.pageBytes = 4096;
    params.missCycles = 30;
    return params;
}

Addr
pageAddr(const TlbParams& params, std::uint64_t page)
{
    return static_cast<Addr>(page * params.pageBytes);
}

} // namespace

TEST(TlbTest, MissWalksThenHits)
{
    const TlbParams params = tinyTlb();
    Tlb tlb("tlb", params);
    const TlbOutcome miss = tlb.translate(pageAddr(params, 5), 0, 10);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.latency, params.missCycles);
    const TlbOutcome hit = tlb.translate(pageAddr(params, 5) + 64, 0, 20);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.latency, 0u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_EQ(tlb.conflicts(), 0u);
}

TEST(TlbTest, LruVictimWithinTheSet)
{
    const TlbParams params = tinyTlb(); // 4 sets x 2 ways
    Tlb tlb("tlb", params);
    // Pages 0, 4, 8 all map to set 0; the third fill evicts the LRU
    // (page 0), not the most recently used.
    tlb.translate(pageAddr(params, 0), 0, 1);
    tlb.translate(pageAddr(params, 4), 0, 2);
    EXPECT_TRUE(tlb.probe(pageAddr(params, 0)));
    tlb.translate(pageAddr(params, 8), 0, 3);
    EXPECT_FALSE(tlb.probe(pageAddr(params, 0)));
    EXPECT_TRUE(tlb.probe(pageAddr(params, 4)));
    EXPECT_TRUE(tlb.probe(pageAddr(params, 8)));
}

TEST(TlbTest, CrossContextDisplacementFiresConflict)
{
    const TlbParams params = tinyTlb();
    Tlb tlb("tlb", params);
    std::vector<TlbConflict> conflicts;
    tlb.addConflictListener([&conflicts](const TlbConflict& c) {
        conflicts.push_back(c);
    });
    // Context 0 owns both ways of set 1; context 1's fill displaces
    // its LRU entry.
    tlb.translate(pageAddr(params, 1), 0, 1);
    tlb.translate(pageAddr(params, 5), 0, 2);
    tlb.translate(pageAddr(params, 9), 1, 3);
    ASSERT_EQ(conflicts.size(), 1u);
    EXPECT_EQ(conflicts[0].time, 3u);
    EXPECT_EQ(conflicts[0].replacer, 1);
    EXPECT_EQ(conflicts[0].victim, 0);
    EXPECT_EQ(tlb.conflicts(), 1u);
}

TEST(TlbTest, SameContextDisplacementIsNotAConflict)
{
    const TlbParams params = tinyTlb();
    Tlb tlb("tlb", params);
    std::uint64_t fired = 0;
    tlb.addConflictListener([&fired](const TlbConflict&) { ++fired; });
    tlb.translate(pageAddr(params, 0), 0, 1);
    tlb.translate(pageAddr(params, 4), 0, 2);
    tlb.translate(pageAddr(params, 8), 0, 3); // evicts own entry
    EXPECT_EQ(fired, 0u);
    EXPECT_EQ(tlb.conflicts(), 0u);
}

TEST(TlbTest, HitReassignsOwnership)
{
    // A hit by another context adopts the entry (the translation is
    // now hot for that context), so a later displacement blames the
    // current owner, not the original filler.
    const TlbParams params = tinyTlb();
    Tlb tlb("tlb", params);
    std::vector<TlbConflict> conflicts;
    tlb.addConflictListener([&conflicts](const TlbConflict& c) {
        conflicts.push_back(c);
    });
    tlb.translate(pageAddr(params, 1), 0, 1); // ctx 0 fills
    tlb.translate(pageAddr(params, 1), 1, 2); // ctx 1 hits, adopts
    tlb.translate(pageAddr(params, 5), 1, 3);
    tlb.translate(pageAddr(params, 9), 1, 4); // displaces page 1
    ASSERT_EQ(conflicts.size(), 0u); // owner was ctx 1: no conflict
}

TEST(TlbTest, FlushInvalidatesEverything)
{
    const TlbParams params = tinyTlb();
    Tlb tlb("tlb", params);
    tlb.translate(pageAddr(params, 3), 0, 1);
    EXPECT_TRUE(tlb.probe(pageAddr(params, 3)));
    tlb.flush();
    EXPECT_FALSE(tlb.probe(pageAddr(params, 3)));
    // Refill after the shootdown does not blame anyone.
    std::uint64_t fired = 0;
    tlb.addConflictListener([&fired](const TlbConflict&) { ++fired; });
    tlb.translate(pageAddr(params, 3), 1, 2);
    EXPECT_EQ(fired, 0u);
}

TEST(TlbTest, DegenerateGeometryIsFatal)
{
    TlbParams params = tinyTlb();
    params.entries = 0;
    EXPECT_THROW(Tlb("tlb", params), std::runtime_error);
    params = tinyTlb();
    params.associativity = 3; // does not divide entries
    EXPECT_THROW(Tlb("tlb", params), std::runtime_error);
    params = tinyTlb();
    params.pageBytes = 0;
    EXPECT_THROW(Tlb("tlb", params), std::runtime_error);
    params.pageBytes = 1; // no spare page number for the tag
    EXPECT_THROW(Tlb("tlb", params), std::runtime_error);
}

namespace
{

/** Per-set LRU TLB built on std::list: page numbers and set indices by
 *  plain division, each entry with its owner. */
class ReferenceTlb
{
  public:
    explicit ReferenceTlb(const TlbParams& params)
        : params_(params), sets_(params.entries / params.associativity)
    {
    }

    /** Translate as `ctx`.  @return true on a hit; on a miss that
     *  displaces another context's entry, `*victim` is its owner. */
    bool
    translate(Addr addr, ContextId ctx, ContextId* victim)
    {
        *victim = invalidContext;
        const std::uint64_t page = addr / params_.pageBytes;
        auto& list = sets_[page % sets_.size()];
        for (auto it = list.begin(); it != list.end(); ++it) {
            if (it->page == page) {
                list.erase(it);
                list.push_front({page, ctx});
                return true;
            }
        }
        list.push_front({page, ctx});
        if (list.size() > params_.associativity) {
            if (list.back().owner != ctx)
                *victim = list.back().owner;
            list.pop_back();
        }
        return false;
    }

    void
    flush()
    {
        for (auto& list : sets_)
            list.clear();
    }

  private:
    struct Entry
    {
        std::uint64_t page;
        ContextId owner;
    };

    TlbParams params_;
    std::vector<std::list<Entry>> sets_; //!< most recently used first
};

/** One fuzz run: the stream's seed and the TLB's geometry. */
struct TlbFuzzCase
{
    std::uint64_t seed;
    std::size_t entries;
    std::size_t associativity;
    std::size_t pageBytes;
};

/** Names a run by its set count and page size, plus its
 *  associativity when that is not 4 (ctest names value-parameterized
 *  tests by this). */
void
PrintTo(const TlbFuzzCase& c, std::ostream* os)
{
    *os << c.entries / c.associativity << "sets_" << c.pageBytes << "B";
    if (c.associativity != 4)
        *os << "_" << c.associativity << "way";
}

class TlbFuzzTest : public ::testing::TestWithParam<TlbFuzzCase>
{
};

} // namespace

TEST_P(TlbFuzzTest, MatchesReferenceOnRandomStreams)
{
    const TlbFuzzCase& c = GetParam();
    TlbParams params;
    params.enabled = true;
    params.entries = c.entries;
    params.associativity = c.associativity;
    params.pageBytes = c.pageBytes;
    Tlb tlb("fuzz", params);
    ReferenceTlb ref(params);

    std::vector<TlbConflict> conflicts;
    tlb.addConflictListener([&conflicts](const TlbConflict& conflict) {
        conflicts.push_back(conflict);
    });
    Rng rng(c.seed);
    std::uint64_t expectedConflicts = 0;
    for (Tick now = 1; now <= 40000; ++now) {
        // A rare shootdown empties every set mid-stream.
        if (rng.nextBelow(5000) == 0) {
            tlb.flush();
            ref.flush();
        }
        // Three pages per entry, two SMT contexts: sets overflow and
        // displace each other's translations all the time.
        const std::uint64_t page = rng.nextBelow(3 * c.entries);
        const Addr addr =
            page * c.pageBytes + rng.nextBelow(c.pageBytes);
        const auto ctx = static_cast<ContextId>(rng.nextBelow(2));
        ContextId victim = invalidContext;
        const bool wantHit = ref.translate(addr, ctx, &victim);
        const TlbOutcome got = tlb.translate(addr, ctx, now);
        ASSERT_EQ(got.hit, wantHit) << "at " << now << " addr " << addr;
        ASSERT_EQ(got.latency, wantHit ? 0 : params.missCycles)
            << "at " << now;
        if (victim != invalidContext) {
            ++expectedConflicts;
            ASSERT_EQ(conflicts.size(), expectedConflicts)
                << "missing conflict at " << now;
            const TlbConflict& last = conflicts.back();
            ASSERT_EQ(last.time, now);
            ASSERT_EQ(last.replacer, ctx);
            ASSERT_EQ(last.victim, victim);
        }
        ASSERT_EQ(conflicts.size(), expectedConflicts)
            << "spurious conflict at " << now;
    }
    EXPECT_EQ(tlb.conflicts(), expectedConflicts);
    EXPECT_GT(expectedConflicts, 1000u);
}

// 64 sets take the mask path of Tlb::setIndex, 24 the modulo path; a
// 6000-byte page takes the division path of Tlb::pageNumber.  One way
// and eight ways bound the LRU victim scan.
INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbFuzzTest,
    ::testing::Values(TlbFuzzCase{7, 256, 4, 4096},
                      TlbFuzzCase{8, 96, 4, 4096},
                      TlbFuzzCase{9, 64, 4, 6000},
                      TlbFuzzCase{10, 64, 1, 4096},
                      TlbFuzzCase{11, 256, 8, 4096},
                      TlbFuzzCase{12, 192, 8, 6000}));

TEST(TlbMemSystemTest, DisabledByDefaultAndLatencyNeutral)
{
    MemSystemParams params;
    EXPECT_FALSE(params.tlb.enabled);
    MemSystem mem(params);
    EXPECT_FALSE(mem.tlbEnabled());
    EXPECT_THROW(mem.tlb(0), std::logic_error);
    // No TLB means no walk cycles folded into the latency.
    const MemAccessOutcome out =
        mem.access(/*ctx=*/0, 0x40000000, /*write=*/false, /*now=*/100);
    EXPECT_EQ(out.tlbWalkCycles, 0u);
}

TEST(TlbMemSystemTest, EnabledTlbChargesWalkOnce)
{
    MemSystemParams params;
    params.tlb.enabled = true;
    MemSystem mem(params);
    ASSERT_TRUE(mem.tlbEnabled());

    const Addr addr = 0x40000000;
    const MemAccessOutcome first =
        mem.access(/*ctx=*/0, addr, /*write=*/false, /*now=*/100);
    EXPECT_EQ(first.tlbWalkCycles, params.tlb.missCycles);
    EXPECT_GE(first.latency, first.tlbWalkCycles);

    // Same page, different line: the translation is resident, so no
    // walk latency the second time around.
    const MemAccessOutcome second =
        mem.access(/*ctx=*/0, addr + 64, /*write=*/false, /*now=*/200);
    EXPECT_EQ(second.tlbWalkCycles, 0u);
    EXPECT_EQ(mem.tlb(0).misses(), 1u);
    EXPECT_EQ(mem.tlb(0).hits(), 1u);
}

TEST(TlbMemSystemTest, PerCoreTlbsAreIndependent)
{
    MemSystemParams params; // threadsPerCore = 2: ctx 2 lives on core 1
    params.tlb.enabled = true;
    MemSystem mem(params);
    const Addr addr = 0x40000000;
    mem.access(/*ctx=*/0, addr, /*write=*/false, /*now=*/100);
    // Core 1 has its own TLB: the same page misses there.
    EXPECT_EQ(mem.tlb(0).misses(), 1u);
    EXPECT_EQ(mem.tlb(1).misses(), 0u);
    EXPECT_FALSE(mem.tlb(1).probe(addr));
    mem.access(/*ctx=*/2, addr, /*write=*/false, /*now=*/200);
    EXPECT_EQ(mem.tlb(1).misses(), 1u);
}
