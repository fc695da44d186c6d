#include "mem/dram.hh"

#include <bit>

#include "util/logging.hh"

namespace cchunter
{

Dram::Dram(DramParams params)
    : params_(params)
{
    if (params_.numBanks == 0 || params_.rowBytes == 0)
        fatal("Dram: banks and row size must be positive");
    rowPow2_ = std::has_single_bit(params_.rowBytes);
    rowShift_ = static_cast<unsigned>(std::countr_zero(params_.rowBytes));
    banksPow2_ = std::has_single_bit(params_.numBanks);
    openRow_.assign(params_.numBanks, 0);
    rowValid_.assign(params_.numBanks, false);
}

Cycles
Dram::access(Addr addr)
{
    const std::uint64_t row =
        rowPow2_ ? addr >> rowShift_ : addr / params_.rowBytes;
    const std::size_t bank = banksPow2_ ? row & (params_.numBanks - 1)
                                        : row % params_.numBanks;
    if (rowValid_[bank] && openRow_[bank] == row) {
        ++rowHits_;
        return params_.rowHitCycles;
    }
    openRow_[bank] = row;
    rowValid_[bank] = true;
    ++rowMisses_;
    return params_.rowMissCycles;
}

} // namespace cchunter
