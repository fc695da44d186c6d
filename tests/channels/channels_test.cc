#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "channels/bus_channel.hh"
#include "channels/divider_channel.hh"
#include "channels/prime_probe.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "sim/machine.hh"

namespace cchunter
{
namespace
{

ChannelTiming
fastTiming(double bps = 10000.0)
{
    ChannelTiming t;
    t.start = 1000;
    t.bandwidthBps = bps;
    return t;
}

TEST(BusChannelTest, TrojanLocksOnlyForOnes)
{
    Machine m;
    ChannelTiming t = fastTiming();
    BusTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({true, false, true, false});
    tp.repeat = false;
    auto trojan = std::make_unique<BusTrojan>(tp);
    auto* raw = trojan.get();
    m.addProcess(std::move(trojan), 0);
    m.run(4 * t.bitTicks() + 10000);
    // Two '1' bits, locks every 5000 cycles over 250k-cycle slots.
    EXPECT_GT(raw->locksIssued(), 60u);
    EXPECT_LT(raw->locksIssued(), 140u);
    EXPECT_EQ(m.mem().bus().locks(), raw->locksIssued());
}

TEST(BusChannelTest, SpyDecodesCleanChannel)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    const Message msg = Message::fromBits(
        {true, false, false, true, true, false, true, false});
    BusTrojanParams tp;
    tp.timing = t;
    tp.message = msg;
    m.addProcess(std::make_unique<BusTrojan>(tp), 0);
    BusSpyParams sp;
    sp.timing = t;
    auto spy = std::make_unique<BusSpy>(sp);
    auto* raw = spy.get();
    m.addProcess(std::move(spy), 2);
    m.run(9 * t.bitTicks());
    ASSERT_GE(raw->decodedSlots().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(raw->decodedSlots()[i].second, msg.bit(i))
            << "bit " << i;
    }
}

TEST(BusChannelTest, SpyCollectsSamples)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    BusSpyParams sp;
    sp.timing = t;
    auto spy = std::make_unique<BusSpy>(sp);
    auto* raw = spy.get();
    m.addProcess(std::move(spy), 0);
    m.run(3 * t.bitTicks());
    EXPECT_GT(raw->samples().size(), 50u);
    for (double s : raw->samples())
        EXPECT_GT(s, 0.0);
}

TEST(BusChannelTest, EmptyMessageThrows)
{
    BusTrojanParams tp;
    tp.timing = fastTiming();
    EXPECT_ANY_THROW(BusTrojan{tp});
}

TEST(DividerChannelTest, TrojanIdleForZeroBits)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    DividerTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({false, false, false});
    tp.repeat = false;
    auto trojan = std::make_unique<DividerTrojan>(tp);
    auto* raw = trojan.get();
    m.addProcess(std::move(trojan), 0);
    m.run(4 * t.bitTicks());
    EXPECT_EQ(raw->opsIssued(), 0u);
    EXPECT_EQ(m.divider(0).totalOps(), 0u);
}

TEST(DividerChannelTest, SpyDecodesAlternatingBits)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    const Message msg = Message::fromBits(
        {true, false, true, false, true, true, false, false});
    DividerTrojanParams tp;
    tp.timing = t;
    tp.message = msg;
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = t;
    auto spy = std::make_unique<DividerSpy>(sp);
    auto* raw = spy.get();
    m.addProcess(std::move(spy), 1); // same core hyperthread
    m.run(9 * t.bitTicks());
    ASSERT_GE(raw->decodedSlots().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(raw->decodedSlots()[i].second, msg.bit(i))
            << "bit " << i;
}

TEST(DividerChannelTest, ContentionDoublesSpyLatency)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    DividerTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({true});
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = t;
    sp.gapMax = 0;
    auto spy = std::make_unique<DividerSpy>(sp);
    auto* raw = spy.get();
    m.addProcess(std::move(spy), 1);
    m.run(t.bitTicks());
    ASSERT_FALSE(raw->samples().empty());
    // 20 ops x 5 cycles doubled by contention = ~200.
    EXPECT_NEAR(raw->samples().back(), 200.0, 20.0);
}

TEST(MultiplierChannelTest, SpyDecodesViaMultiplierContention)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    const Message msg = Message::fromBits(
        {true, false, true, true, false, false, true, false});
    DividerTrojanParams tp;
    tp.timing = t;
    tp.message = msg;
    tp.useMultiplier = true;
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = t;
    sp.useMultiplier = true;
    sp.decodeThreshold = 90; // 3-cycle ops: 60 vs 120
    auto spy = std::make_unique<DividerSpy>(sp);
    auto* raw = spy.get();
    m.addProcess(std::move(spy), 1);
    m.run(9 * t.bitTicks());
    ASSERT_GE(raw->decodedSlots().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(raw->decodedSlots()[i].second, msg.bit(i))
            << "bit " << i;
    // The divider stayed idle; only the multiplier contended.
    EXPECT_EQ(m.divider(0).totalConflicts(), 0u);
    EXPECT_GT(m.multiplier(0).totalConflicts(), 1000u);
}

TEST(BusChannelTest, EvasionDecoysLockDuringDormancy)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    BusTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({false, false, false, false});
    tp.repeat = false;
    tp.evasionLockPeriod = 50000;
    auto trojan = std::make_unique<BusTrojan>(tp);
    auto* raw = trojan.get();
    m.addProcess(std::move(trojan), 0);
    m.run(4 * t.bitTicks());
    // All-zero message, yet decoy locks flow: roughly one per ~75k
    // cycles (period/2 + uniform jitter) across 10M cycles.
    EXPECT_GT(raw->locksIssued(), 80u);
    EXPECT_LT(raw->locksIssued(), 250u);
}

TEST(BusChannelTest, NoEvasionMeansSilenceOnZeros)
{
    Machine m;
    ChannelTiming t = fastTiming(1000.0);
    BusTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({false, false, false, false});
    tp.repeat = false;
    auto trojan = std::make_unique<BusTrojan>(tp);
    auto* raw = trojan.get();
    m.addProcess(std::move(trojan), 0);
    m.run(4 * t.bitTicks());
    EXPECT_EQ(raw->locksIssued(), 0u);
}

TEST(CacheChannelTest, RoundsMultiplyOscillationPeriods)
{
    MachineParams mp;
    mp.mem.l2 = CacheGeometry{256 * 1024, 1, 64};
    Machine m(mp);
    ChannelTiming t = fastTiming(100.0); // 25 M per bit

    PrimeProbeLayout layout;
    layout.numSets = 4096;
    layout.channelSets = 128;

    PrimeProbeTrojanParams tp;
    tp.timing = t;
    tp.message = Message::fromBits({true});
    tp.layout = layout;
    tp.roundsPerBit = 8;
    auto trojan = std::make_unique<PrimeProbeTrojan>(tp);
    auto* traw = trojan.get();
    m.addProcess(std::move(trojan), 0);

    PrimeProbeSpyParams sp;
    sp.timing = t;
    sp.layout = layout;
    sp.roundsPerBit = 8;
    sp.noiseEvery = 0;
    m.addProcess(std::make_unique<PrimeProbeSpy>(sp), 1);

    m.run(t.bitTicks());
    // 8 rounds x 64 sets primed per round.
    EXPECT_NEAR(static_cast<double>(traw->primesIssued()), 8.0 * 64.0,
                64.0);
}

TEST(CacheChannelTest, LayoutAddressing)
{
    PrimeProbeLayout layout;
    layout.numSets = 4096;
    layout.channelSets = 512;
    EXPECT_EQ(layout.setsPerGroup(), 256u);
    // G1 set 0 and G0 set 0 are channelSets/2 sets apart.
    const Addr g1 = layout.addr(0, true, true, 0, 0);
    const Addr g0 = layout.addr(0, true, false, 0, 0);
    EXPECT_EQ(g0 - g1, 256u * 64u);
    // Lines with the same idx share the set: stride = sets * lineSize.
    layout.trojanDepth = 2;
    const Addr l1 = layout.addr(0, true, true, 3, 1);
    EXPECT_EQ(l1, 3 * 64 + 4096 * 64u);
    EXPECT_ANY_THROW(layout.addr(0, true, true, 300, 0));
}

TEST(CacheChannelTest, SpyDecodesBitsViaLatencyRatio)
{
    MachineParams mp;
    mp.mem.l2 = CacheGeometry{256 * 1024, 1, 64}; // direct-mapped
    Machine m(mp);
    ChannelTiming t = fastTiming(100.0); // 25 M ticks per bit
    const Message msg = Message::fromBits(
        {true, false, true, true, false, false, true, false});

    PrimeProbeLayout layout;
    layout.numSets = 4096;
    layout.channelSets = 128;

    PrimeProbeTrojanParams tp;
    tp.timing = t;
    tp.message = msg;
    tp.layout = layout;
    m.addProcess(std::make_unique<PrimeProbeTrojan>(tp), 0);

    PrimeProbeSpyParams sp;
    sp.timing = t;
    sp.layout = layout;
    sp.noiseEvery = 0;
    auto spy = std::make_unique<PrimeProbeSpy>(sp);
    auto* raw = spy.get();
    m.addProcess(std::move(spy), 1);

    m.run(10 * t.bitTicks());
    ASSERT_GE(raw->decodedSlots().size(), 8u);
    // Skip the cold-start bit 0; bits 1..7 must decode exactly.
    for (std::size_t i = 1; i < 8; ++i)
        EXPECT_EQ(raw->decodedSlots()[i].second, msg.bit(i))
            << "bit " << i;
    // Ratios reflect the bit: > 1 for '1', < 1 for '0' (paper fig. 7).
    const auto& ratios = raw->ratios();
    ASSERT_GE(ratios.size(), 8u);
    for (std::size_t i = 1; i < 8; ++i) {
        if (msg.bit(i))
            EXPECT_GT(ratios[i], 1.0) << "bit " << i;
        else
            EXPECT_LT(ratios[i], 1.0) << "bit " << i;
    }
}

TEST(CacheChannelTest, OddChannelSetsThrow)
{
    PrimeProbeTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::fromBits({true});
    tp.layout.channelSets = 511;
    EXPECT_ANY_THROW(PrimeProbeTrojan{tp});
}

TEST(CacheChannelTest, ChannelBeyondL2Throws)
{
    PrimeProbeTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::fromBits({true});
    tp.layout.numSets = 64;
    tp.layout.channelSets = 128;
    EXPECT_ANY_THROW(PrimeProbeTrojan{tp});
}

/** The cache unit's layout: 4096 sets of 64-byte lines. */
PrimeProbeLayout
cacheLayout(std::size_t linesPerSet)
{
    PrimeProbeLayout l;
    l.numSets = 4096;
    l.setStride = 64;
    l.channelSets = 512;
    l.firstSet = 1024;
    l.trojanDepth = linesPerSet;
    l.spyDepth = linesPerSet;
    return l;
}

/** The TLB unit's layout: 64 sets x 4 ways of 4 KiB pages. */
PrimeProbeLayout
tlbLayout()
{
    PrimeProbeLayout l;
    l.unit = "tlb";
    l.numSets = 64;
    l.setStride = 4096;
    l.channelSets = 32;
    l.firstSet = 16;
    l.trojanDepth = 4;
    l.spyDepth = 1;
    l.slotBytes = 64;
    return l;
}

/**
 * Every address both sides touch, with the set it must land in, its
 * side and its group.
 */
struct Placed
{
    Addr addr;
    std::size_t set;
    bool trojan;
    bool group1;
};

std::vector<Placed>
placeAll(const PrimeProbeLayout& l)
{
    std::vector<Placed> out;
    for (const bool trojan : {true, false}) {
        const Addr base = trojan ? 0x40000000 : 0x80000000;
        const std::size_t depth = trojan ? l.trojanDepth : l.spyDepth;
        for (const bool g1 : {true, false})
            for (std::size_t idx = 0; idx < l.setsPerGroup(); ++idx)
                for (std::size_t e = 0; e < depth; ++e)
                    out.push_back(
                        {l.addr(base, trojan, g1, idx, e),
                         l.firstSet + (g1 ? 0 : l.setsPerGroup()) + idx,
                         trojan, g1});
    }
    return out;
}

TEST(PrimeProbeLayoutTest, CacheEntriesLandInTheirSets)
{
    const Cache l2("l2", CacheGeometry{256 * 1024, 1, 64});
    ASSERT_EQ(l2.geometry().numSets(), 4096u);
    for (const std::size_t depth : {1u, 2u}) {
        const PrimeProbeLayout l = cacheLayout(depth);
        std::set<std::size_t> g1_sets, g0_sets;
        std::set<Addr> lines;
        for (const Placed& p : placeAll(l)) {
            EXPECT_EQ(l2.setIndex(p.addr), p.set) << "depth " << depth;
            (p.group1 ? g1_sets : g0_sets).insert(l2.setIndex(p.addr));
            lines.insert(l2.lineAddr(p.addr));
        }
        EXPECT_EQ(g1_sets.size(), l.setsPerGroup());
        EXPECT_EQ(g0_sets.size(), l.setsPerGroup());
        for (const std::size_t s : g1_sets)
            EXPECT_EQ(g0_sets.count(s), 0u) << "set " << s;
        // Every entry of either side is a distinct line.
        EXPECT_EQ(lines.size(), 2 * l.channelSets * depth);
    }
}

TEST(PrimeProbeLayoutTest, TlbEntriesLandInTheirSetsAndOwnSlots)
{
    TlbParams tp;
    tp.entries = 256;
    tp.associativity = 4;
    tp.pageBytes = 4096;
    const Tlb tlb("tlb", tp);
    ASSERT_EQ(tlb.numSets(), 64u);
    const PrimeProbeLayout l = tlbLayout();
    std::set<std::size_t> g1_sets, g0_sets;
    std::set<Addr> trojan_slots, spy_slots, pages;
    for (const Placed& p : placeAll(l)) {
        EXPECT_EQ(tlb.setIndex(p.addr), p.set);
        (p.group1 ? g1_sets : g0_sets).insert(tlb.setIndex(p.addr));
        pages.insert(tlb.pageNumber(p.addr));
        // The slot's whole cache line stays inside its page.
        const Addr in_page = p.addr % l.setStride;
        EXPECT_EQ(in_page % 64, 0u);
        EXPECT_LE(in_page + 64, l.setStride);
        (p.trojan ? trojan_slots : spy_slots).insert(in_page / 64);
    }
    for (const std::size_t s : g1_sets)
        EXPECT_EQ(g0_sets.count(s), 0u) << "set " << s;
    EXPECT_EQ(g1_sets.size() + g0_sets.size(), l.channelSets);
    // The trojan fills every way; the spy keeps one page per set.
    EXPECT_EQ(pages.size(), l.channelSets * (l.trojanDepth + 1));
    // Trojan and spy never share an in-page line slot.
    EXPECT_EQ(trojan_slots.size(), l.channelSets);
    EXPECT_EQ(spy_slots.size(), l.channelSets);
    for (const Addr s : trojan_slots)
        EXPECT_EQ(spy_slots.count(s), 0u) << "slot " << s;
}

TEST(PrimeProbeLayoutTest, ValidateRejectsLayoutsThatDoNotFit)
{
    EXPECT_NO_THROW(cacheLayout(2).validate("test"));
    EXPECT_NO_THROW(tlbLayout().validate("test"));
    for (const PrimeProbeLayout& ok : {cacheLayout(1), tlbLayout()}) {
        PrimeProbeLayout l = ok;
        l.channelSets = 31; // odd
        EXPECT_ANY_THROW(l.validate("test")) << ok.unit;
        l.channelSets = 0;
        EXPECT_ANY_THROW(l.validate("test")) << ok.unit;
        l = ok;
        l.firstSet = ok.numSets - ok.channelSets + 1; // past the end
        EXPECT_ANY_THROW(l.validate("test")) << ok.unit;
        l = ok;
        l.trojanDepth = 0;
        EXPECT_ANY_THROW(l.validate("test")) << ok.unit;
        l = ok;
        l.spyDepth = 0;
        EXPECT_ANY_THROW(l.validate("test")) << ok.unit;
    }
    // 34 sets need 68 line slots; a 4 KiB page holds 64.
    PrimeProbeLayout crowded = tlbLayout();
    crowded.firstSet = 0;
    crowded.channelSets = 34;
    EXPECT_ANY_THROW(crowded.validate("test"));
}

TEST(PrimeProbeLayoutTest, BothSidesValidateAndTakeTheUnitsName)
{
    PrimeProbeTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::fromBits({true});
    tp.layout = tlbLayout();
    PrimeProbeSpyParams sp;
    sp.timing = fastTiming();
    sp.layout = tlbLayout();
    EXPECT_EQ(PrimeProbeTrojan(tp).name(), "tlb-trojan");
    EXPECT_EQ(PrimeProbeSpy(sp).name(), "tlb-spy");
    sp.layout = cacheLayout(1);
    EXPECT_EQ(PrimeProbeSpy(sp).name(), "cache-spy");
    // The spy refuses a channel that does not fit, as the trojan does.
    sp.layout.numSets = 64;
    EXPECT_ANY_THROW(PrimeProbeSpy{sp});
    tp.message = Message();
    EXPECT_ANY_THROW(PrimeProbeTrojan{tp});
}

} // namespace
} // namespace cchunter
