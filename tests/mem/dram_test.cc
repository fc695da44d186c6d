#include <gtest/gtest.h>

#include <map>

#include "mem/dram.hh"
#include "util/rng.hh"

namespace cchunter
{
namespace
{

TEST(DramTest, FirstAccessIsRowMiss)
{
    Dram d;
    EXPECT_EQ(d.access(0x0), d.params().rowMissCycles);
    EXPECT_EQ(d.rowMisses(), 1u);
}

TEST(DramTest, SameRowHits)
{
    Dram d;
    d.access(0x0);
    EXPECT_EQ(d.access(0x40), d.params().rowHitCycles);
    EXPECT_EQ(d.access(0x1000), d.params().rowHitCycles);
    EXPECT_EQ(d.rowHits(), 2u);
}

TEST(DramTest, DifferentRowSameBankMisses)
{
    DramParams p;
    Dram d(p);
    d.access(0x0);
    // Row 0 and row numBanks map to bank 0 but different rows.
    const Addr other_row = static_cast<Addr>(p.rowBytes) * p.numBanks;
    EXPECT_EQ(d.access(other_row), p.rowMissCycles);
}

TEST(DramTest, BanksAreIndependent)
{
    DramParams p;
    Dram d(p);
    d.access(0x0);                                   // bank 0
    d.access(static_cast<Addr>(p.rowBytes));         // bank 1
    // Returning to bank 0's open row still hits.
    EXPECT_EQ(d.access(0x80), p.rowHitCycles);
}

TEST(DramTest, NonPowerOfTwoGeometryMatchesReference)
{
    // Rows and banks by plain division against the model's shift/mask
    // (power-of-two) and divide/modulo (otherwise) paths.
    const DramParams geometries[] = {
        {110, 180, 8, 8192}, // both powers of two
        {110, 180, 3, 8192}, // bank count is not
        {110, 180, 8, 6000}, // row size is not
        {110, 180, 5, 3000}, // neither is
    };
    for (const DramParams& p : geometries) {
        Dram d(p);
        std::map<std::uint64_t, std::uint64_t> openRow; // bank -> row
        std::uint64_t hits = 0;
        Rng rng(p.numBanks * 100003 + p.rowBytes);
        for (int i = 0; i < 20000; ++i) {
            // Four rows per bank keep rows both reopening and hitting.
            const Addr addr = rng.nextBelow(4 * p.numBanks * p.rowBytes);
            const std::uint64_t row = addr / p.rowBytes;
            const std::uint64_t bank = row % p.numBanks;
            const auto it = openRow.find(bank);
            const bool hit = it != openRow.end() && it->second == row;
            openRow[bank] = row;
            hits += hit;
            ASSERT_EQ(d.access(addr),
                      hit ? p.rowHitCycles : p.rowMissCycles)
                << p.numBanks << " banks x " << p.rowBytes
                << " B rows, access " << i << " addr " << addr;
        }
        EXPECT_EQ(d.rowHits(), hits);
        EXPECT_GT(hits, 1000u);
        EXPECT_GT(d.rowMisses(), 1000u);
    }
    // Three banks: row 3 shares bank 0 with row 0.
    DramParams p;
    p.numBanks = 3;
    Dram d(p);
    d.access(0x0);
    EXPECT_EQ(d.access(3 * p.rowBytes), p.rowMissCycles);
    EXPECT_EQ(d.access(p.rowBytes), p.rowMissCycles);
    EXPECT_EQ(d.access(3 * p.rowBytes + 64), p.rowHitCycles);
}

TEST(DramTest, InvalidParamsThrow)
{
    DramParams p;
    p.numBanks = 0;
    EXPECT_ANY_THROW(Dram{p});
}

} // namespace
} // namespace cchunter
