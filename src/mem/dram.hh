/**
 * @file
 * A simple DRAM latency model with per-bank open-row state.
 */

#ifndef CCHUNTER_MEM_DRAM_HH
#define CCHUNTER_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace cchunter
{

/** DRAM timing parameters. */
struct DramParams
{
    Cycles rowHitCycles = 110;   //!< access hitting the open row
    Cycles rowMissCycles = 180;  //!< precharge + activate + access
    std::size_t numBanks = 8;    //!< interleaved banks
    std::size_t rowBytes = 8192; //!< bytes per row
};

/**
 * DRAM device: returns access latency; tracks open rows per bank.
 */
class Dram
{
  public:
    explicit Dram(DramParams params = {});

    /** Latency of a line access at the given address. */
    Cycles access(Addr addr);

    std::uint64_t rowHits() const { return rowHits_; }
    std::uint64_t rowMisses() const { return rowMisses_; }

    const DramParams& params() const { return params_; }

  private:
    DramParams params_;
    // Row = addr / rowBytes and bank = row % numBanks, as a shift and
    // a mask when the geometry is a power of two.
    unsigned rowShift_ = 0;
    bool rowPow2_ = false;
    bool banksPow2_ = false;
    std::vector<std::uint64_t> openRow_;
    std::vector<bool> rowValid_;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
};

} // namespace cchunter

#endif // CCHUNTER_MEM_DRAM_HH
